package vek

// On amd64 the AVX2 kernels are always assembled in and selected once, at
// package initialization, from the CPUID/XGETBV probe: hosts with
// OS-enabled AVX2 dispatch to them, every other host runs the generic Go
// path. The choice does not depend on the GOAMD64 build level.
//
// The assembly performs the identical per-lane IEEE-754 operation sequence
// as the generic path: VMULPD/VADDPD/VSUBPD only, no VFMADD (the no-FMA
// contract), no cross-lane arithmetic. n must be a multiple of 4; the Go
// wrappers run the remainder through the generic tail.
var simdOn = features.AVX2

//go:noescape
//postopc:allocfree
func butterflyColSIMD(loRe, loIm, hiRe, hiIm *float64, wr, wi float64, n int)

//go:noescape
//postopc:allocfree
func butterflyRowSIMD(loRe, loIm, hiRe, hiIm, twRe, twIm *float64, n int)

//go:noescape
//postopc:allocfree
func cmulSIMD(dstRe, dstIm, aRe, aIm, bRe, bIm *float64, n int)

//go:noescape
//postopc:allocfree
func accIntensitySIMD(acc, re, im *float64, w float64, n int)

// correlateRowSIMD computes n outputs (a multiple of 4) of CorrelateRow
// from src, which must hold n+nt-1 elements.
//
//go:noescape
//postopc:allocfree
func correlateRowSIMD(dst, src, taps *float64, nt, n int)

// accCorrelateColsSIMD runs AccCorrelateCols over n elements (a multiple
// of 4, at least 4) for all nt taps.
//
//go:noescape
//postopc:allocfree
func accCorrelateColsSIMD(dst, src *float64, stride int, taps *float64, nt, n int)

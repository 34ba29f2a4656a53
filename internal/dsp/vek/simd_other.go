//go:build !amd64

package vek

// Off amd64 there is no assembly: the kernels run the generic Go path
// only. simdOn stays false, so the stubs below are never reached; they
// exist so the dispatch branches in the portable wrappers compile.
var simdOn = false

//postopc:allocfree
func butterflyColSIMD(loRe, loIm, hiRe, hiIm *float64, wr, wi float64, n int) {
	panic("vek: no SIMD kernels on this architecture")
}

//postopc:allocfree
func butterflyRowSIMD(loRe, loIm, hiRe, hiIm, twRe, twIm *float64, n int) {
	panic("vek: no SIMD kernels on this architecture")
}

//postopc:allocfree
func cmulSIMD(dstRe, dstIm, aRe, aIm, bRe, bIm *float64, n int) {
	panic("vek: no SIMD kernels on this architecture")
}

//postopc:allocfree
func accIntensitySIMD(acc, re, im *float64, w float64, n int) {
	panic("vek: no SIMD kernels on this architecture")
}

//postopc:allocfree
func correlateRowSIMD(dst, src, taps *float64, nt, n int) {
	panic("vek: no SIMD kernels on this architecture")
}

//postopc:allocfree
func accCorrelateColsSIMD(dst, src *float64, stride int, taps *float64, nt, n int) {
	panic("vek: no SIMD kernels on this architecture")
}

package vek

// BuildLevel returns the GOAMD64 microarchitecture level this binary was
// compiled for ("v1".."v4"), or the empty string off amd64. It sets the
// instruction baseline of compiled Go code only; the vek kernel path is
// chosen at run time (see SIMDEnabled).
func BuildLevel() string { return buildLevel }

// SIMDEnabled reports whether the kernels dispatch to the AVX2 assembly —
// true on amd64 hosts with OS-enabled AVX2, at any GOAMD64 level.
func SIMDEnabled() bool { return simdOn }

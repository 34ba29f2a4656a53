// Package dsp implements the signal-processing primitives needed by the
// lithography simulator: an in-place radix-2 2-D FFT over structure-of-arrays
// complex plane grids (FGrid) with cached twiddle-factor and bit-reversal
// tables, band-selected and band-limited transform variants for pupil
// filters that touch only a few spectrum rows, and pooled plane grids for
// the imaging hot path. Everything is stdlib-only.
package dsp

import "math/bits"

// NextPow2 returns the smallest power of two >= n (and >= 1).
//
//postopc:allocfree
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
//
//postopc:allocfree
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FreqIndex maps grid index i (0..n-1) to the signed frequency bin
// (-n/2 .. n/2-1) using standard FFT ordering.
//
//postopc:allocfree
func FreqIndex(i, n int) int {
	if i <= n/2-1 {
		return i
	}
	return i - n
}

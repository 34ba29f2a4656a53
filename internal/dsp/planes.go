package dsp

import (
	"fmt"

	"postopc/internal/dsp/vek"
)

// FGrid is a dense Nx × Ny complex field stored row-major as
// structure-of-arrays float64 planes — the working representation for mask
// spectra and aerial fields, and the native representation of the vek
// kernel layer. Every plane kernel performs, per element, the exact float
// operation sequence of the equivalent complex128 arithmetic (see package
// vek).
type FGrid struct {
	Nx, Ny int
	Re, Im []float64
}

// NewFGrid allocates a zeroed Nx × Ny plane grid.
func NewFGrid(nx, ny int) *FGrid {
	return &FGrid{Nx: nx, Ny: ny, Re: make([]float64, nx*ny), Im: make([]float64, nx*ny)}
}

// At returns element (ix, iy) as a complex128.
//
//postopc:allocfree
func (f *FGrid) At(ix, iy int) complex128 {
	i := iy*f.Nx + ix
	return complex(f.Re[i], f.Im[i])
}

// Set assigns element (ix, iy).
//
//postopc:allocfree
func (f *FGrid) Set(ix, iy int, v complex128) {
	i := iy*f.Nx + ix
	f.Re[i], f.Im[i] = real(v), imag(v)
}

// Clear zeroes both planes in place.
//
//postopc:allocfree
func (f *FGrid) Clear() {
	vek.Zero(f.Re)
	vek.Zero(f.Im)
}

// FFT2D performs an in-place forward 2-D FFT over the plane grid. Both
// dimensions must be powers of two.
func (f *FGrid) FFT2D() error { return f.fft2d(false) }

// IFFT2D performs an in-place inverse 2-D FFT (scaled) over the plane grid.
func (f *FGrid) IFFT2D() error { return f.fft2d(true) }

func (f *FGrid) fft2d(inverse bool) error {
	if !IsPow2(f.Nx) || !IsPow2(f.Ny) {
		return fmt.Errorf("dsp: grid %dx%d not power-of-two", f.Nx, f.Ny)
	}
	// Rows first, then columns — the order is load-bearing: floating-point
	// rounding differs between the two factorizations, and determinism
	// tests pin this one.
	rowPlan := planFor(f.Nx)
	for iy := 0; iy < f.Ny; iy++ {
		fftLinePlanes(f.Re[iy*f.Nx:(iy+1)*f.Nx], f.Im[iy*f.Nx:(iy+1)*f.Nx], rowPlan, inverse)
	}
	f.transformColumns(inverse)
	return nil
}

// FFT2DBandSelect performs the forward 2-D transform computing only the
// listed spectrum rows: the column pass runs in full, then the row pass
// runs on those rows only. On the listed rows the result equals a full
// separable transform; every other row is left partially transformed and
// must not be read. Band-limited consumers (a pupil filter that reads a
// handful of spectrum rows) use this to skip most of the row pass.
//
// Note the pass order (columns, then rows) is the transpose of FFT2D's;
// the two factorizations agree mathematically but differ in floating-point
// rounding, so a caller must not mix values from both paths and expect
// byte equality.
func (f *FGrid) FFT2DBandSelect(rows []int) error {
	if !IsPow2(f.Nx) || !IsPow2(f.Ny) {
		return fmt.Errorf("dsp: grid %dx%d not power-of-two", f.Nx, f.Ny)
	}
	f.transformColumns(false)
	rowPlan := planFor(f.Nx)
	for _, iy := range rows {
		if iy < 0 || iy >= f.Ny {
			return fmt.Errorf("dsp: band-select row %d outside grid of %d rows", iy, f.Ny)
		}
		fftLinePlanes(f.Re[iy*f.Nx:(iy+1)*f.Nx], f.Im[iy*f.Nx:(iy+1)*f.Nx], rowPlan, false)
	}
	return nil
}

// liveStackWords sizes the row-liveness bitset IFFT2DBandLimited keeps on
// the stack: one bit per row, enough for grids of up to 4096 rows.
const liveStackWords = 64

// IFFT2DBandLimited performs the inverse 2-D transform of a spectrum whose
// energy is confined to the listed rows and computes only the outRows ×
// cols corner of the result, which is bit-identical to the same corner of
// IFFT2D. Every other row must hold +0 in both planes over columns
// [0, cols), as Clear leaves it; columns from cols on of those rows are
// never read. Elements outside the corner are left unspecified.
//
// Three prunings skip the work the corner does not need:
//   - the row pass runs on the listed rows only (the inverse FFT of a +0
//     row is +0);
//   - the column pass runs on columns [0, cols) only, since columns are
//     independent, and skips every butterfly whose two input rows are both
//     still +0. Liveness is tracked from rows through the bit reversal and
//     each stage; skipping moves no bit (see fftColumnsBlockedPlanes);
//   - the 1/Ny scaling runs on the corner only.
func (f *FGrid) IFFT2DBandLimited(rows []int, cols, outRows int) error {
	if !IsPow2(f.Nx) || !IsPow2(f.Ny) {
		return fmt.Errorf("dsp: grid %dx%d not power-of-two", f.Nx, f.Ny)
	}
	if cols < 0 || cols > f.Nx || outRows < 0 || outRows > f.Ny {
		return fmt.Errorf("dsp: band-limited corner %dx%d outside grid %dx%d", cols, outRows, f.Nx, f.Ny)
	}
	for _, iy := range rows {
		if iy < 0 || iy >= f.Ny {
			return fmt.Errorf("dsp: band-limited row %d outside grid of %d rows", iy, f.Ny)
		}
	}
	var buf [liveStackWords]uint64
	var live []uint64
	if words := (f.Ny + 63) >> 6; words <= len(buf) {
		live = buf[:words]
	} else {
		live = make([]uint64, words) //postopc:nolint:allocbudget grids taller than 4096 rows are outside the imaging hot path
	}
	colPlan := planFor(f.Ny)
	liveRows(live, rows, colPlan)
	rowPlan := planFor(f.Nx)
	for _, iy := range rows {
		fftLinePlanes(f.Re[iy*f.Nx:(iy+1)*f.Nx], f.Im[iy*f.Nx:(iy+1)*f.Nx], rowPlan, true)
	}
	fftColumnsBlockedPlanes(f.Re, f.Im, f.Nx, cols, live, colPlan, true)
	for o := 0; o < outRows*f.Nx; o += f.Nx {
		vek.ScaleInv(f.Re[o:o+cols], f.Im[o:o+cols], float64(f.Ny))
	}
	return nil
}

// transformColumns transforms every column in place through the blocked
// butterfly path. The inverse 1/Ny scaling is applied grid-wide through
// vek.ScaleInv, which performs per element exactly what the historical
// complex division did and divides each element exactly once.
//
//postopc:allocfree
func (f *FGrid) transformColumns(inverse bool) {
	fftColumnsBlockedPlanes(f.Re, f.Im, f.Nx, f.Nx, nil, planFor(f.Ny), inverse)
	if inverse {
		vek.ScaleInv(f.Re, f.Im, float64(f.Ny))
	}
}

// Energy returns the sum of |v|² over the plane grid.
//
//postopc:allocfree
func (f *FGrid) Energy() float64 {
	var s float64
	im := f.Im[:len(f.Re)]
	for i, re := range f.Re {
		q := im[i]
		s += re*re + q*q
	}
	return s
}

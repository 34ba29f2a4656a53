package dsp

import "sync"

// Grid pooling for the imaging hot path: a window simulation needs two
// full-size plane grids (transmission/spectrum and per-source-point work
// field) per call, and steady-state full-chip runs simulate thousands of
// equally-sized windows. Borrow/Return recycles the backing arrays so those
// calls allocate nothing after warm-up.
//
// The pool is safe for concurrent use (extraction and ORC workers share
// it). A borrowed grid's contents are unspecified — callers must overwrite
// or Clear before reading, which also keeps results independent of pool
// history.

var fgridPool sync.Pool

// BorrowFGrid returns an Nx × Ny plane grid from the pool, allocating only
// when no pooled grid is large enough. Contents are unspecified — callers
// must overwrite or Clear before reading.
//
//postopc:allocfree
func BorrowFGrid(nx, ny int) *FGrid {
	f, _ := fgridPool.Get().(*FGrid)
	if f == nil {
		return NewFGrid(nx, ny) //postopc:nolint:allocbudget pool miss before warm-up is the cold path
	}
	n := nx * ny
	if cap(f.Re) < n {
		f.Re = make([]float64, n) //postopc:nolint:allocbudget regrowth at a new window size is the cold path
		f.Im = make([]float64, n) //postopc:nolint:allocbudget regrowth at a new window size is the cold path
	}
	f.Nx, f.Ny = nx, ny
	f.Re, f.Im = f.Re[:n], f.Im[:n]
	return f
}

// ReturnFGrid puts f back into the pool. The caller must not use f (or its
// planes) afterwards.
//
//postopc:allocfree
func ReturnFGrid(f *FGrid) {
	if f != nil {
		fgridPool.Put(f)
	}
}

package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// randGrid fills a fresh nx×ny grid with unit-normal complex noise.
func randGrid(rnd *rand.Rand, nx, ny int) *FGrid {
	g := NewFGrid(nx, ny)
	for i := range g.Re {
		g.Re[i], g.Im[i] = rnd.NormFloat64(), rnd.NormFloat64()
	}
	return g
}

// bitsEqual reports whether two grids hold bit-identical planes.
func bitsEqual(a, b *FGrid) (int, bool) {
	for i := range a.Re {
		if math.Float64bits(a.Re[i]) != math.Float64bits(b.Re[i]) ||
			math.Float64bits(a.Im[i]) != math.Float64bits(b.Im[i]) {
			return i, false
		}
	}
	return 0, true
}

// randPow2Dims draws non-square power-of-two grid dimensions.
func randPow2Dims(rnd *rand.Rand) (nx, ny int) {
	nx = 1 << (1 + rnd.Intn(6)) // 2..64
	ny = 1 << (1 + rnd.Intn(6))
	if nx == ny {
		ny *= 2
	}
	return
}

func TestFFT2DParsevalProperty(t *testing.T) {
	// Energy conservation on non-square grids:
	// sum |x|² = (1/(Nx·Ny)) sum |X|².
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		nx, ny := randPow2Dims(rnd)
		g := randGrid(rnd, nx, ny)
		e := g.Energy()
		if err := g.FFT2D(); err != nil {
			return false
		}
		ef := g.Energy() / float64(nx*ny)
		return math.Abs(e-ef) <= 1e-9*e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFFT2DImpulseFlatSpectrum(t *testing.T) {
	// A delta at the grid origin transforms to an all-ones spectrum.
	g := NewFGrid(32, 8)
	g.Set(0, 0, 1)
	if err := g.FFT2D(); err != nil {
		t.Fatal(err)
	}
	for i := range g.Re {
		if v := at(g, i); cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFT2DRoundTripNonSquareProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		nx, ny := randPow2Dims(rnd)
		g := randGrid(rnd, nx, ny)
		orig := cloneGrid(g)
		if err := g.FFT2D(); err != nil {
			return false
		}
		if err := g.IFFT2D(); err != nil {
			return false
		}
		for i := range g.Re {
			if cmplx.Abs(at(g, i)-at(orig, i)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFFT2DDeterminism pins the run-to-run determinism contract: two
// transforms of the same input must be byte-identical, bit for bit. The
// plan cache is warmed first so a cold- and warm-cache transform are
// compared too — building the twiddle tables must not move a result.
func TestFFT2DDeterminism(t *testing.T) {
	mk := func() *FGrid {
		r := rand.New(rand.NewSource(99))
		return randGrid(r, 64, 32)
	}
	a := mk()
	if err := a.FFT2D(); err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := b.FFT2D(); err != nil {
		t.Fatal(err)
	}
	if i, ok := bitsEqual(a, b); !ok {
		t.Fatalf("bin %d differs between identical transforms: %v vs %v", i, at(a, i), at(b, i))
	}
}

// TestIFFT2DBandLimitedMatchesFull checks the pruned inverse against the
// full one on random grids, support sets and corners. Support sets are
// contiguous, wrapping around row 0, scattered, empty and full; the corner
// is a random cols ≤ Nx by outRows ≤ Ny. Rows outside the support hold +0
// over the corner's columns and NaN beyond them, which the contract says
// are never read; the reference zeroes them and runs IFFT2D. On the corner
// the two must agree bit for bit, including the sign of zero.
func TestIFFT2DBandLimitedMatchesFull(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	supports := []struct {
		name string
		rows func(ny int) []int
	}{
		{"contiguous", func(ny int) []int {
			lo := rnd.Intn(ny)
			return seq(lo, lo+1+rnd.Intn(ny-lo))
		}},
		{"wrapping", func(ny int) []int { // a band around DC, as a pupil filter's
			k := 1 + rnd.Intn(max(ny/2, 1))
			return append(seq(0, k), seq(ny-k+1, ny)...)
		}},
		{"scattered", func(ny int) []int {
			var rows []int
			for iy := 0; iy < ny; iy++ {
				if rnd.Intn(3) == 0 {
					rows = append(rows, iy)
				}
			}
			return rows
		}},
		{"empty", func(int) []int { return nil }},
		{"full", func(ny int) []int { return seq(0, ny) }},
	}
	for trial := 0; trial < 40; trial++ {
		for _, sup := range supports {
			nx := 1 << rnd.Intn(8) // 1..128
			ny := 1 << rnd.Intn(8)
			if trial == 0 {
				nx, ny = 32, 512 // a tall grid: more than one liveness word
			}
			rows := sup.rows(ny)
			cols, outRows := rnd.Intn(nx+1), rnd.Intn(ny+1)
			if trial%4 == 0 {
				cols, outRows = nx, ny
			}
			g := NewFGrid(nx, ny)
			full := NewFGrid(nx, ny)
			for iy := 0; iy < ny; iy++ {
				for ix := cols; ix < nx; ix++ {
					g.Set(ix, iy, complex(math.NaN(), math.NaN()))
				}
			}
			for _, iy := range rows {
				for ix := 0; ix < nx; ix++ {
					v := complex(rnd.NormFloat64(), rnd.NormFloat64())
					if rnd.Intn(8) == 0 {
						v = complex(math.Copysign(0, -1), 0)
					}
					g.Set(ix, iy, v)
					full.Set(ix, iy, v)
				}
			}
			if err := full.IFFT2D(); err != nil {
				t.Fatal(err)
			}
			if err := g.IFFT2DBandLimited(rows, cols, outRows); err != nil {
				t.Fatal(err)
			}
			for iy := 0; iy < outRows; iy++ {
				for ix := 0; ix < cols; ix++ {
					i := iy*nx + ix
					if math.Float64bits(g.Re[i]) != math.Float64bits(full.Re[i]) ||
						math.Float64bits(g.Im[i]) != math.Float64bits(full.Im[i]) {
						t.Fatalf("%s support %v on %dx%d, corner %dx%d: (%d,%d) = %v, full %v",
							sup.name, rows, nx, ny, cols, outRows, ix, iy, at(g, i), at(full, i))
					}
				}
			}
		}
	}
}

// seq returns the integers lo, lo+1, ..., hi-1.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestFFT2DBandSelectMatchesFull checks the forward band-select transform
// against a full FFT2D on the selected rows. The pass order is transposed
// (columns first), so agreement is numerical, not bitwise.
func TestFFT2DBandSelectMatchesFull(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	const nx, ny = 16, 32
	g := randGrid(rnd, nx, ny)
	full := cloneGrid(g)
	if err := full.FFT2D(); err != nil {
		t.Fatal(err)
	}
	rows := []int{0, 2, 5, 31}
	if err := g.FFT2DBandSelect(rows); err != nil {
		t.Fatal(err)
	}
	for _, iy := range rows {
		for ix := 0; ix < nx; ix++ {
			if cmplx.Abs(g.At(ix, iy)-full.At(ix, iy)) > 1e-9 {
				t.Fatalf("band-select row %d bin %d = %v, full = %v",
					iy, ix, g.At(ix, iy), full.At(ix, iy))
			}
		}
	}
}

func TestBandRowsValidation(t *testing.T) {
	g := NewFGrid(8, 8)
	if err := g.FFT2DBandSelect([]int{8}); err == nil {
		t.Fatal("expected error for out-of-range band-select row")
	}
	if err := g.IFFT2DBandLimited([]int{-1}, 8, 8); err == nil {
		t.Fatal("expected error for negative band-limited row")
	}
	for _, c := range [][2]int{{9, 8}, {8, 9}, {-1, 8}, {8, -1}} {
		if err := g.IFFT2DBandLimited(nil, c[0], c[1]); err == nil {
			t.Fatalf("expected error for a %dx%d corner of an 8x8 grid", c[0], c[1])
		}
	}
	ng := NewFGrid(3, 8)
	if err := ng.FFT2DBandSelect(nil); err == nil {
		t.Fatal("expected error for non-power-of-two grid")
	}
	if err := ng.IFFT2DBandLimited(nil, 3, 8); err == nil {
		t.Fatal("expected error for non-power-of-two grid")
	}
}

func TestBorrowGridReuse(t *testing.T) {
	g := BorrowFGrid(16, 8)
	if g.Nx != 16 || g.Ny != 8 || len(g.Re) != 128 || len(g.Im) != 128 {
		t.Fatalf("borrowed grid has wrong shape: %dx%d len %d/%d", g.Nx, g.Ny, len(g.Re), len(g.Im))
	}
	g.Set(3, 2, 42)
	ReturnFGrid(g)
	// A smaller borrow may reuse the same backing arrays; contents are
	// unspecified, but the shape must be exact.
	h := BorrowFGrid(8, 8)
	if h.Nx != 8 || h.Ny != 8 || len(h.Re) != 64 || len(h.Im) != 64 {
		t.Fatalf("reborrowed grid has wrong shape: %dx%d len %d/%d", h.Nx, h.Ny, len(h.Re), len(h.Im))
	}
	h.Clear()
	for i := range h.Re {
		if v := at(h, i); v != 0 {
			t.Fatalf("Clear left %v at %d", v, i)
		}
	}
	ReturnFGrid(h)
	ReturnFGrid(nil) // must not panic
}

package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 100: 128, 128: 128, 129: 256}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12, 1023} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

// The 1-D cases run on n × 1 grids: with a single row the column pass is
// the identity (a length-1 transform, scaled by 1 on the inverse), so the
// 2-D transform is exactly the 1-D transform of the row.

// signalGrid returns x as an n × 1 plane grid.
func signalGrid(x []complex128) *FGrid {
	f := NewFGrid(len(x), 1)
	for i, v := range x {
		f.Set(i, 0, v)
	}
	return f
}

// cloneGrid returns a deep copy of f.
func cloneGrid(f *FGrid) *FGrid {
	c := NewFGrid(f.Nx, f.Ny)
	copy(c.Re, f.Re)
	copy(c.Im, f.Im)
	return c
}

// at returns element i of the row-major planes as a complex128.
func at(f *FGrid, i int) complex128 { return complex(f.Re[i], f.Im[i]) }

func TestFFTRejectsNonPow2(t *testing.T) {
	if err := NewFGrid(12, 1).FFT2D(); err == nil {
		t.Fatal("expected error for length 12")
	}
	if err := NewFGrid(3, 4).FFT2D(); err == nil {
		t.Fatal("expected error for 3x4 grid")
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a delta at 0 is all-ones.
	x := NewFGrid(8, 1)
	x.Set(0, 0, 1)
	if err := x.FFT2D(); err != nil {
		t.Fatal(err)
	}
	for i := range x.Re {
		if v := at(x, i); cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A pure complex exponential at bin k concentrates all energy in bin k.
	const n, k = 64, 5
	x := NewFGrid(n, 1)
	for i := 0; i < n; i++ {
		x.Set(i, 0, cmplx.Exp(complex(0, 2*math.Pi*float64(k*i)/n)))
	}
	if err := x.FFT2D(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		if i == k {
			want = n
		}
		if got := cmplx.Abs(at(x, i)); math.Abs(got-want) > 1e-9 {
			t.Fatalf("bin %d magnitude = %g, want %g", i, got, want)
		}
	}
}

func randSignal(rnd *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rnd.NormFloat64(), rnd.NormFloat64())
	}
	return x
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rnd.Intn(9)) // 2..1024
		orig := randSignal(rnd, n)
		x := signalGrid(orig)
		if err := x.FFT2D(); err != nil {
			return false
		}
		if err := x.IFFT2D(); err != nil {
			return false
		}
		for i := range orig {
			if cmplx.Abs(at(x, i)-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	// sum |x|^2 = (1/N) sum |X|^2.
	rnd := rand.New(rand.NewSource(7))
	x := signalGrid(randSignal(rnd, 256))
	e := x.Energy()
	if err := x.FFT2D(); err != nil {
		t.Fatal(err)
	}
	ef := x.Energy() / 256
	if math.Abs(e-ef) > 1e-8*e {
		t.Fatalf("Parseval violated: %g vs %g", e, ef)
	}
}

func TestFFTLinearity(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	a := randSignal(rnd, 128)
	b := randSignal(rnd, 128)
	sum := make([]complex128, 128)
	for i := range sum {
		sum[i] = 2*a[i] + 3*b[i]
	}
	fa, fb, fs := signalGrid(a), signalGrid(b), signalGrid(sum)
	for _, g := range []*FGrid{fa, fb, fs} {
		if err := g.FFT2D(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range sum {
		if cmplx.Abs(at(fs, i)-(2*at(fa, i)+3*at(fb, i))) > 1e-8 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestFFT2DRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	g := randGrid(rnd, 32, 16)
	orig := cloneGrid(g)
	if err := g.FFT2D(); err != nil {
		t.Fatal(err)
	}
	if err := g.IFFT2D(); err != nil {
		t.Fatal(err)
	}
	for i := range g.Re {
		if cmplx.Abs(at(g, i)-at(orig, i)) > 1e-9 {
			t.Fatalf("2D round trip mismatch at %d", i)
		}
	}
}

func TestFFT2DSeparableTone(t *testing.T) {
	// A 2-D plane wave concentrates in a single 2-D bin.
	const nx, ny, kx, ky = 16, 16, 3, 5
	g := NewFGrid(nx, ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			ph := 2 * math.Pi * (float64(kx*ix)/nx + float64(ky*iy)/ny)
			g.Set(ix, iy, cmplx.Exp(complex(0, ph)))
		}
	}
	if err := g.FFT2D(); err != nil {
		t.Fatal(err)
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			want := 0.0
			if ix == kx && iy == ky {
				want = nx * ny
			}
			if math.Abs(cmplx.Abs(g.At(ix, iy))-want) > 1e-8 {
				t.Fatalf("bin (%d,%d) = %g, want %g", ix, iy, cmplx.Abs(g.At(ix, iy)), want)
			}
		}
	}
}

func TestFreqIndex(t *testing.T) {
	n := 8
	want := []int{0, 1, 2, 3, -4, -3, -2, -1}
	for i, w := range want {
		if got := FreqIndex(i, n); got != w {
			t.Errorf("FreqIndex(%d,%d) = %d, want %d", i, n, got, w)
		}
	}
}

func TestGridAccessors(t *testing.T) {
	g := NewFGrid(4, 3)
	g.Set(2, 1, 5+6i)
	if g.At(2, 1) != 5+6i {
		t.Fatal("Set/At mismatch")
	}
	if g.Re[1*4+2] != 5 || g.Im[1*4+2] != 6 {
		t.Fatal("Set must write row-major planes")
	}
	if g.Energy() != 61 {
		t.Fatalf("Energy = %g", g.Energy())
	}
	g.Clear()
	if g.At(2, 1) != 0 || g.Energy() != 0 {
		t.Fatal("Clear left values behind")
	}
}

func BenchmarkFFT1D1024(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	x := signalGrid(randSignal(rnd, 1024))
	buf := NewFGrid(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf.Re, x.Re)
		copy(buf.Im, x.Im)
		_ = buf.FFT2D()
	}
}

func BenchmarkFFT2D256(b *testing.B) {
	g := NewFGrid(256, 256)
	rnd := rand.New(rand.NewSource(1))
	for i := range g.Re {
		g.Re[i] = rnd.NormFloat64()
	}
	c := NewFGrid(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(c.Re, g.Re)
		copy(c.Im, g.Im)
		_ = c.FFT2D()
	}
}

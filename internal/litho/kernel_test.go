package litho

import (
	"math"
	"runtime/debug"
	"testing"

	"postopc/internal/geom"
)

// Tests for the optical kernel engine: image background polarity, the
// AerialSeries aliasing contract, filter-bank correctness and the
// steady-state allocation budget of the hot path.

// smallMask is a 3-line pattern on a small window, cheap enough for
// property-style kernel tests.
func smallMask() *geom.Raster {
	la := LineArray{WidthNM: 130, PitchNM: 280, Count: 3, LengthNM: 600}
	ra := geom.NewRaster(geom.R(-640, -640, 640, 640), 10)
	for _, r := range la.Rects() {
		ra.AddRect(r)
	}
	ra.Clamp()
	return ra
}

// TestImageBackgroundPolarity pins the Image.At polarity contract:
// out-of-window reads return the unpatterned-field level of the mask
// polarity — 1.0 for clear field, 0.0 for dark field. (Before the
// Background field existed, dark-field images read 1.0 off the edge, which
// turned the dark surround into printing bright field.)
func TestImageBackgroundPolarity(t *testing.T) {
	dark := testRecipe()
	dark.Polarity = DarkField
	mask := smallMask()
	for _, tc := range []struct {
		name   string
		recipe Recipe
		wantBG float64
	}{
		{"clear-abbe", testRecipe(), 1},
		{"dark-abbe", dark, 0},
	} {
		m, err := NewAbbe(tc.recipe)
		if err != nil {
			t.Fatal(err)
		}
		im, err := m.Aerial(mask, Nominal)
		if err != nil {
			t.Fatal(err)
		}
		if im.Background != tc.wantBG {
			t.Errorf("%s: Background = %g, want %g", tc.name, im.Background, tc.wantBG)
		}
		if got := im.At(-1, -1); got != tc.wantBG {
			t.Errorf("%s: At(-1,-1) = %g, want background %g", tc.name, got, tc.wantBG)
		}
		if got := im.At(im.Nx, 0); got != tc.wantBG {
			t.Errorf("%s: At(Nx,0) = %g, want background %g", tc.name, got, tc.wantBG)
		}
	}
	// The Gaussian model must agree with the Abbe model on the contract.
	gm, err := NewGaussian(dark)
	if err != nil {
		t.Fatal(err)
	}
	im, err := gm.Aerial(mask, Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if im.Background != 0 || im.At(-1, -1) != 0 {
		t.Errorf("dark-gauss: Background=%g At(-1,-1)=%g, want 0", im.Background, im.At(-1, -1))
	}
}

// TestAerialSeriesAliasing pins the documented sharing contract of
// Model.AerialSeries: corners that differ only in dose alias ONE *Image,
// and distinct defoci get distinct images.
func TestAerialSeriesAliasing(t *testing.T) {
	mask := smallMask()
	corners := []Corner{
		{DefocusNM: 0, Dose: 1},
		{DefocusNM: 0, Dose: 1.05}, // same defocus: must alias corner 0
		{DefocusNM: 80, Dose: 1},
		{DefocusNM: 0, Dose: 0.95}, // same defocus: must alias corner 0
		{DefocusNM: 80, Dose: 1.05},
	}
	for _, m := range []Model{newAbbeT(t), newGaussT(t)} {
		imgs, err := m.AerialSeries(mask, corners)
		if err != nil {
			t.Fatal(err)
		}
		if imgs[1] != imgs[0] || imgs[3] != imgs[0] {
			t.Errorf("%T: equal-defocus corners must alias one image", m)
		}
		if imgs[4] != imgs[2] {
			t.Errorf("%T: equal-defocus defocused corners must alias one image", m)
		}
		if imgs[2] == imgs[0] {
			t.Errorf("%T: distinct defoci must not alias", m)
		}
	}
}

// TestAbbeSeriesMatchesSingle checks the multi-corner series path (merged
// spectrum rows, shared transform) against independent single-corner calls.
func TestAbbeSeriesMatchesSingle(t *testing.T) {
	m := newAbbeT(t)
	mask := smallMask()
	corners := []Corner{Nominal, {DefocusNM: 80, Dose: 1}, {DefocusNM: -80, Dose: 1}}
	series, err := m.AerialSeries(mask, corners)
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range corners {
		single, err := m.Aerial(mask, c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range single.Data {
			if d := math.Abs(series[ci].Data[i] - single.Data[i]); d > 1e-12 {
				t.Fatalf("corner %d pixel %d: series %g vs single %g", ci, i, series[ci].Data[i], single.Data[i])
			}
		}
	}
}

// TestFoldSourceWeights checks the Hermitian mirror folding: folded weights
// sum to the original total and every mirrored pair is merged.
func TestFoldSourceWeights(t *testing.T) {
	src := SampleSource(0, 0.7, 3)
	folded := foldSource(src)
	if len(folded) >= len(src) {
		t.Fatalf("folding did not reduce the source: %d -> %d points", len(src), len(folded))
	}
	var wSrc, wFold float64
	for _, p := range src {
		wSrc += p.Weight
	}
	for _, p := range folded {
		wFold += p.weight
	}
	if math.Abs(wSrc-wFold) > 1e-12 {
		t.Fatalf("folded weight %g != source weight %g", wFold, wSrc)
	}
}

// TestFilterBankReuse checks that repeated Aerial calls hit the same cached
// filter set (pointer equality) instead of rebuilding it, and that the
// shared bank serves distinct model instances built from equal recipes the
// same tables — the read-mostly bank service contract.
func TestFilterBankReuse(t *testing.T) {
	m := newAbbeT(t)
	mask := smallMask()
	if _, err := m.Aerial(mask, Nominal); err != nil {
		t.Fatal(err)
	}
	fs1 := m.filtersFor(128, 128, 10, 0)
	fs2 := m.filtersFor(128, 128, 10, 0)
	if fs1 != fs2 {
		t.Fatal("filter bank rebuilt an existing entry")
	}
	if bank := sharedBank.cur.Load(); bank == nil || len(*bank) == 0 {
		t.Fatal("Aerial did not populate the shared filter bank")
	}
	// A second instance with the same recipe must share the entry.
	other := newAbbeT(t)
	if other == m {
		t.Fatal("test needs distinct instances")
	}
	if fs3 := other.filtersFor(128, 128, 10, 0); fs3 != fs1 {
		t.Fatal("equal-recipe models did not share the bank entry")
	}
	// A different recipe must not collide with the entry.
	rec := testRecipe()
	rec.NA += 0.05
	changed, err := NewAbbe(rec)
	if err != nil {
		t.Fatal(err)
	}
	if fs4 := changed.filtersFor(128, 128, 10, 0); fs4 == fs1 {
		t.Fatal("distinct recipes shared one filter set")
	}
}

// TestKernelAllocBudget asserts the steady-state allocation budget of the
// imaging hot path: with warm pools and filter bank, a window simulation
// allocates only the returned Image (struct + Data) plus the series slice.
// It runs on a power-of-two mask and on the padded 259×324 window, whose
// inverse transforms take the pruned column pass. GC is disabled during the
// measurement so sync.Pool contents survive — the budget is about the code
// path, not GC timing.
func TestKernelAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget is asserted in the non-race run")
	}
	abbe := newAbbeT(t)
	gauss, err := NewGaussianDual(testRecipe(), 120, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	corners := []Corner{Nominal}
	const budget = 4
	for _, mask := range []*geom.Raster{smallMask(), benchMaskWindow()} {
		for _, m := range []Model{abbe, gauss} {
			// Warm filter bank and every pool before counting.
			for i := 0; i < 3; i++ {
				if _, err := m.AerialSeries(mask, corners); err != nil {
					t.Fatal(err)
				}
			}
			gc := debug.SetGCPercent(-1)
			got := testing.AllocsPerRun(10, func() {
				if _, err := m.AerialSeries(mask, corners); err != nil {
					t.Fatal(err)
				}
			})
			debug.SetGCPercent(gc)
			if got > budget {
				t.Errorf("%T AerialSeries on %dx%d mask: allocs/op = %g, budget %d", m, mask.Nx, mask.Ny, got, budget)
			}
		}
	}
}

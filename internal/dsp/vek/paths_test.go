package vek_test

import (
	"fmt"
	"math"
	"testing"

	"postopc/internal/dsp/vek"
	"postopc/internal/geom"
	"postopc/internal/litho"
)

// TestAerialImagesBothPaths renders the windows that litho's golden-SHA
// tests pin (TestAbbeAerialGoldenSHA, TestGaussianAerialGoldenSHA: the same
// recipe, masks, corners and calls) on the dispatched kernels and again
// under ForceGeneric, and requires bit-identical images. The litho tests
// hold the dispatched images to the recorded hashes, so on an AVX2 host
// this extends the goldens to the generic path within one go test run.
func TestAerialImagesBothPaths(t *testing.T) {
	if !vek.SIMDEnabled() {
		t.Skip("no AVX2 on this host: the litho goldens already run the generic path")
	}
	r := litho.Recipe{
		WavelengthNM: 193, NA: 0.85, SigmaOuter: 0.7, SourceRings: 3,
		Threshold: 0.30, PixelNM: 10, GuardNM: 400, Polarity: litho.ClearField,
	}
	abbe, err := litho.NewAbbe(r)
	if err != nil {
		t.Fatal(err)
	}
	gauss, err := litho.NewGaussianDual(r, 120, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	mask := geom.NewRaster(geom.R(-1280, -1280, 1280, 1280), 10)
	for _, rc := range (litho.LineArray{WidthNM: 130, PitchNM: 280, Count: 7, LengthNM: 2000}).Rects() {
		mask.AddRect(rc)
	}
	mask.Clamp()
	corners := []litho.Corner{litho.Nominal, {DefocusNM: 120, Dose: 1}}

	for _, m := range []struct {
		name  string
		model litho.Model
	}{{"abbe", abbe}, {"gaussian", gauss}} {
		for _, c := range corners {
			dispatched, err := m.model.Aerial(mask, c)
			if err != nil {
				t.Fatal(err)
			}
			var generic *litho.Image
			vek.ForceGeneric(func() { generic, err = m.model.Aerial(mask, c) })
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, fmt.Sprintf("%s defocus %gnm", m.name, c.DefocusNM), dispatched, generic)
		}
	}

	// litho's benchMaskWindow: a 259×324 window that pads to 512×512,
	// imaged through AerialSeries.
	window := geom.NewRaster(geom.R(-1290, -1620, 1300, 1620), 10)
	for _, rc := range (litho.LineArray{WidthNM: 130, PitchNM: 280, Count: 7, LengthNM: 2400}).Rects() {
		window.AddRect(rc)
	}
	window.AddRect(geom.R(-1000, 1300, 1000, 1430))
	window.Clamp()
	dispatched, err := abbe.AerialSeries(window, corners)
	if err != nil {
		t.Fatal(err)
	}
	var generic []*litho.Image
	vek.ForceGeneric(func() { generic, err = abbe.AerialSeries(window, corners) })
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range corners {
		requireSameBits(t, fmt.Sprintf("abbe 259x324 window defocus %gnm", c.DefocusNM), dispatched[i], generic[i])
	}
}

// requireSameBits fails the test at the first pixel whose bit pattern
// differs between the dispatched and the generic image.
func requireSameBits(t *testing.T, name string, dispatched, generic *litho.Image) {
	t.Helper()
	for i, v := range dispatched.Data {
		if math.Float64bits(v) != math.Float64bits(generic.Data[i]) {
			t.Fatalf("%s: pixel %d = %v dispatched, %v generic", name, i, v, generic.Data[i])
		}
	}
}

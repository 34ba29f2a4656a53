package vek_test

import (
	"math"
	"testing"

	"postopc/internal/dsp/vek"
	"postopc/internal/geom"
	"postopc/internal/litho"
)

// TestAerialImagesBothPaths renders the windows that litho's golden-SHA
// tests pin (TestAbbeAerialGoldenSHA, TestGaussianAerialGoldenSHA: the same
// recipe, 256×256 grating and corners) on the dispatched kernels and again
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

	for _, m := range []struct {
		name  string
		model litho.Model
	}{{"abbe", abbe}, {"gaussian", gauss}} {
		for _, c := range []litho.Corner{litho.Nominal, {DefocusNM: 120, Dose: 1}} {
			dispatched, err := m.model.Aerial(mask, c)
			if err != nil {
				t.Fatal(err)
			}
			var generic *litho.Image
			vek.ForceGeneric(func() { generic, err = m.model.Aerial(mask, c) })
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range dispatched.Data {
				if math.Float64bits(v) != math.Float64bits(generic.Data[i]) {
					t.Fatalf("%s defocus %gnm: pixel %d = %v dispatched, %v generic",
						m.name, c.DefocusNM, i, v, generic.Data[i])
				}
			}
		}
	}
}

package litho

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// Golden-SHA pins of the aerial images. The Abbe hashes were recorded from
// the pre-vek complex128 kernel path, the Gaussian ones from the scalar
// blur loops; the kernel layer (internal/dsp/vek) preserves the exact
// floating-point operation sequence of that code, so the images must stay
// byte-identical — across refactors, on both kernel paths (AVX2 and
// generic, chosen at run time from CPUID) and at every GOAMD64 build level
// (the kernels contain no fused operations, see the no-FMA contract in
// DESIGN.md "SIMD inner loops"). These tests check the dispatched path;
// vek's TestAerialImagesBothPaths renders the same windows under
// ForceGeneric and requires identical bytes, and CI's GOAMD64=v3 lane
// re-runs this file. A hash change means a kernel reordered, fused or
// otherwise perturbed a float operation.

// goldenAerialSHA256 hashes the image: dimensions, background and every
// sample as its exact IEEE-754 bit pattern, little-endian.
func goldenAerialSHA256(im *Image) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(im.Nx))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(im.Ny))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(im.Background))
	h.Write(buf[:])
	for _, v := range im.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAbbeAerialGoldenSHA locks the nominal and defocused Abbe images of
// the fixed 256×256 grating window to their recorded hashes. The defocused
// corner exercises the unfolded full source sum and the complex pupil
// phases; nominal exercises Hermitian folding. Together they cover every
// vek kernel: transmission fill, forward band-selected butterflies, the
// filter apply, the inverse band-limited butterflies with their 1/N
// scaling, and the intensity accumulate.
func TestAbbeAerialGoldenSHA(t *testing.T) {
	golden := map[string]string{
		"nominal":    "c7d23219c1727153264c63589ed8da02f118e5143339dde5992efd6bc6f98829",
		"defocus120": "db29a873f1b6e4d818dd2221ec2f6401b239ca668b952e3d8ccf7d014b90b0b3",
	}
	m := newAbbeT(t)
	mask := benchMask256()
	for name, c := range map[string]Corner{
		"nominal":    Nominal,
		"defocus120": {DefocusNM: 120, Dose: 1},
	} {
		im, err := m.Aerial(mask, c)
		if err != nil {
			t.Fatal(err)
		}
		got := goldenAerialSHA256(im)
		if want := golden[name]; got != want {
			t.Errorf("%s aerial SHA-256 = %s, want %s\n"+
				"(a mismatch means a kernel changed its floating-point op sequence;"+
				" see the bit-identity contract in DESIGN.md)", name, got, want)
		}
	}
}

// TestGaussianAerialGoldenSHA locks the dual-Gaussian fast model (the
// BenchmarkGaussianAerial configuration: σ2 = 120nm, w = 0.15) on the same
// 256×256 window. The hashes were recorded from the scalar tap-loop
// convolution, before the register-blocked kernels replaced it. Nominal
// runs the 43-tap narrow and 73-tap broad kernels; the defocused corner
// widens them to 47 and 77 taps.
func TestGaussianAerialGoldenSHA(t *testing.T) {
	golden := map[string]string{
		"nominal":    "fc1ddda31f19b2b6788137ad5607a5a6d707f009e99d579f2918cf3b2b121fa0",
		"defocus120": "eb885487b6cc139e788fc74342ff59875ee0c4eb5e1ad3f96c87cb22c5e38a54",
	}
	m, err := NewGaussianDual(testRecipe(), 120, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	mask := benchMask256()
	for name, c := range map[string]Corner{
		"nominal":    Nominal,
		"defocus120": {DefocusNM: 120, Dose: 1},
	} {
		im, err := m.Aerial(mask, c)
		if err != nil {
			t.Fatal(err)
		}
		got := goldenAerialSHA256(im)
		if want := golden[name]; got != want {
			t.Errorf("%s aerial SHA-256 = %s, want %s\n"+
				"(a mismatch means a kernel changed its floating-point op sequence;"+
				" see the bit-identity contract in DESIGN.md)", name, got, want)
		}
	}
}

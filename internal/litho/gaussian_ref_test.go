package litho

import (
	"math"
	"math/rand"
	"testing"
)

// convolveGaussianRef is the scalar blur that convolveGaussianInto ran
// before the vek correlation kernels, kept verbatim as the bit-identity
// reference. It blurs amp (nx×ny, row-major) into dst with an isotropic
// Gaussian of the given sigma, extending edges with the background level.
// The kernel is truncated at 3σ and normalized to unit sum so a uniform
// field is preserved exactly. dst must have nx*ny elements; its prior
// contents are ignored. Row scratch comes from ks.
func convolveGaussianRef(dst, amp []float64, nx, ny int, bg, sigma, px float64, ks *kernelScratch) {
	half := int(math.Ceil(3 * sigma / px))
	if half < 1 {
		half = 1
	}
	ks.kern = growFloats(ks.kern, 2*half+1)
	kern := ks.kern
	var ksum float64
	for i := -half; i <= half; i++ {
		v := math.Exp(-0.5 * sq(float64(i)*px/sigma))
		kern[i+half] = v
		ksum += v
	}
	for i := range kern {
		kern[i] /= ksum
	}
	// Horizontal pass over a background-padded row buffer (branch-free
	// inner loop). The pad's end fills are constant across rows, so they
	// are written once, outside the row loop.
	ks.tmp = growFloats(ks.tmp, nx*ny)
	tmp := ks.tmp
	ks.pad = growFloats(ks.pad, nx+2*half)
	pad := ks.pad
	for i := 0; i < half; i++ {
		pad[i] = bg
		pad[nx+half+i] = bg
	}
	for iy := 0; iy < ny; iy++ {
		copy(pad[half:half+nx], amp[iy*nx:(iy+1)*nx])
		row := tmp[iy*nx : (iy+1)*nx]
		for ix := 0; ix < nx; ix++ {
			var s float64
			win := pad[ix : ix+2*half+1]
			for j, k := range kern {
				s += win[j] * k
			}
			row[ix] = s
		}
	}
	// Vertical pass, accumulated row-wise for sequential memory access.
	// dst is an accumulator here, so it is zeroed first.
	for i := range dst {
		dst[i] = 0
	}
	for k := -half; k <= half; k++ {
		w := kern[k+half]
		for iy := 0; iy < ny; iy++ {
			row := dst[iy*nx : (iy+1)*nx]
			j := iy + k
			if j < 0 || j >= ny {
				add := bg * w
				for ix := range row {
					row[ix] += add
				}
				continue
			}
			src := tmp[j*nx : (j+1)*nx]
			for ix := range row {
				row[ix] += src[ix] * w
			}
		}
	}
}

// TestConvolveGaussianMatchesRef asserts that the register-blocked blur is
// bit-identical to the scalar reference above (the pre-blocking
// convolveGaussianInto, kept verbatim) over random window sizes — including
// rows narrower than one four-output block and windows shorter than the
// kernel — both background levels, and 0/1/fractional coverage.
func TestConvolveGaussianMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ks := new(kernelScratch)
	for trial := 0; trial < 300; trial++ {
		nx, ny := 1+r.Intn(70), 1+r.Intn(70)
		sigma := 5 + 200*r.Float64()
		bg := float64(r.Intn(2))
		amp := make([]float64, nx*ny)
		for i := range amp {
			switch r.Intn(3) {
			case 0:
				amp[i] = 0
			case 1:
				amp[i] = 1
			default:
				amp[i] = r.Float64()
			}
		}
		want := make([]float64, nx*ny)
		convolveGaussianRef(want, amp, nx, ny, bg, sigma, 10, ks)
		got := make([]float64, nx*ny)
		for i := range got {
			got[i] = math.NaN() // prior contents must be ignored
		}
		convolveGaussianInto(got, amp, nx, ny, bg, sigma, 10, ks)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (nx=%d ny=%d σ=%.1f bg=%g): pixel %d = %v, want %v",
					trial, nx, ny, sigma, bg, i, got[i], want[i])
			}
		}
	}
}

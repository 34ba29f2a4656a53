package vek_test

import (
	"math"
	"testing"

	"postopc/internal/dsp/vek"
)

// BenchmarkKernelInnerLoops is the micro-series behind BENCH_kernel.json's
// kernel_micro block: each dominant inner loop — butterfly, pointwise
// filter apply, scaled intensity accumulate, inverse scale — timed as the
// complex128 reference loop and as the SoA plane kernel, and the two
// Gaussian-blur correlations timed as their scalar reference loop and as
// the kernel, all at the span length the real pipeline uses (a 256-wide
// row/column block):
//
//	go test ./internal/dsp/vek/ -run - -bench KernelInnerLoops
//
// The kernel rows run the dispatched path (AVX2 on AVX2 hosts); on such
// hosts each kernel is timed a second time under ForceGeneric, as its
// "-generic" row, so one run records both paths.
const benchN = 256

// benchTaps is the narrow Gaussian of the fast model at 10nm pixels: 43
// normalized taps (σ ≈ 68nm, truncated at 3σ).
func benchTaps() []float64 {
	taps := make([]float64, 43)
	var sum float64
	for i := range taps {
		x := float64(i-21) * 10 / 68.1
		taps[i] = math.Exp(-0.5 * x * x)
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return taps
}

// runBothPaths runs the sub-benchmark on the dispatched kernels and, on
// AVX2 hosts, again under ForceGeneric as name+"-generic".
func runBothPaths(b *testing.B, name string, fn func(b *testing.B)) {
	onBothPaths(func(path string) {
		if path == "generic" {
			name += "-generic"
		}
		b.Run(name, fn)
	})
}

func benchComplexLine(seed float64) []complex128 {
	xs := make([]complex128, benchN)
	for i := range xs {
		xs[i] = complex(seed+float64(i)*0.25, seed-float64(i)*0.125)
	}
	return xs
}

func benchPlanes(seed float64) (re, im []float64) {
	re = make([]float64, benchN)
	im = make([]float64, benchN)
	vek.Split(re, im, benchComplexLine(seed))
	return re, im
}

func BenchmarkKernelInnerLoops(b *testing.B) {
	b.Logf("goamd64=%q avx2 dispatch=%v", vek.BuildLevel(), vek.SIMDEnabled())

	b.Run("butterfly/complex128", func(b *testing.B) {
		lo := benchComplexLine(1.5)
		hi := benchComplexLine(-0.75)
		w := complex(0.6, -0.8)
		b.SetBytes(benchN * 16 * 2)
		for i := 0; i < b.N; i++ {
			for c := range lo {
				a := lo[c]
				bb := hi[c] * w
				lo[c] = a + bb
				hi[c] = a - bb
			}
		}
	})
	runBothPaths(b, "butterfly/soa", func(b *testing.B) {
		loRe, loIm := benchPlanes(1.5)
		hiRe, hiIm := benchPlanes(-0.75)
		b.SetBytes(benchN * 16 * 2)
		for i := 0; i < b.N; i++ {
			vek.ButterflyCol(loRe, loIm, hiRe, hiIm, 0.6, -0.8)
		}
	})

	b.Run("filter-apply/complex128", func(b *testing.B) {
		s := benchComplexLine(0.5)
		v := benchComplexLine(2.0)
		dst := make([]complex128, benchN)
		b.SetBytes(benchN * 16 * 2)
		for i := 0; i < b.N; i++ {
			for c := range dst {
				dst[c] = s[c] * v[c]
			}
		}
	})
	runBothPaths(b, "filter-apply/soa", func(b *testing.B) {
		sRe, sIm := benchPlanes(0.5)
		vRe, vIm := benchPlanes(2.0)
		dRe := make([]float64, benchN)
		dIm := make([]float64, benchN)
		b.SetBytes(benchN * 16 * 2)
		for i := 0; i < b.N; i++ {
			vek.CMul(dRe, dIm, sRe, sIm, vRe, vIm)
		}
	})

	b.Run("accumulate/complex128", func(b *testing.B) {
		field := benchComplexLine(0.25)
		acc := make([]float64, benchN)
		b.SetBytes(benchN * (16 + 8))
		for i := 0; i < b.N; i++ {
			for c, e := range field {
				re, im := real(e), imag(e)
				acc[c] += 0.125 * (re*re + im*im)
			}
		}
	})
	runBothPaths(b, "accumulate/soa", func(b *testing.B) {
		fRe, fIm := benchPlanes(0.25)
		acc := make([]float64, benchN)
		b.SetBytes(benchN * (16 + 8))
		for i := 0; i < b.N; i++ {
			vek.AccIntensity(acc, fRe, fIm, 0.125)
		}
	})

	b.Run("scale-inv/complex128", func(b *testing.B) {
		xs := benchComplexLine(3.0)
		nC := complex(float64(benchN), 0)
		b.SetBytes(benchN * 16)
		for i := 0; i < b.N; i++ {
			for c := range xs {
				xs[c] /= nC
			}
		}
	})
	runBothPaths(b, "scale-inv/soa", func(b *testing.B) {
		re, im := benchPlanes(3.0)
		b.SetBytes(benchN * 16)
		for i := 0; i < b.N; i++ {
			vek.ScaleInv(re, im, benchN)
		}
	})

	b.Run("correlate-row/scalar", func(b *testing.B) {
		taps := benchTaps()
		src, _ := benchPlanes(0.5)
		src = append(src, src[:len(taps)-1]...)
		dst := make([]float64, benchN)
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			correlateRowRef(dst, src, taps)
		}
	})
	runBothPaths(b, "correlate-row/kernel", func(b *testing.B) {
		taps := benchTaps()
		src, _ := benchPlanes(0.5)
		src = append(src, src[:len(taps)-1]...)
		dst := make([]float64, benchN)
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			vek.CorrelateRow(dst, src, taps)
		}
	})

	b.Run("correlate-cols/scalar", func(b *testing.B) {
		taps := benchTaps()
		plane := make([]float64, benchN*len(taps))
		for i := range plane {
			plane[i] = float64(i%7) * 0.125
		}
		dst := make([]float64, benchN)
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			vek.Zero(dst)
			accCorrelateColsRef(dst, plane, benchN, taps)
		}
	})
	runBothPaths(b, "correlate-cols/kernel", func(b *testing.B) {
		taps := benchTaps()
		plane := make([]float64, benchN*len(taps))
		for i := range plane {
			plane[i] = float64(i%7) * 0.125
		}
		dst := make([]float64, benchN)
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			vek.Zero(dst)
			vek.AccCorrelateCols(dst, plane, benchN, taps)
		}
	})
}

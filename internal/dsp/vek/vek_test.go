package vek_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"postopc/internal/dsp/vek"
)

// Property tests pinning the package contract: every kernel is bit-identical
// to the complex128 reference loop it replaces — on non-power-aligned
// lengths, NaN/Inf/denormal inputs, signed zeros and empty slices. The
// references below are verbatim copies of the pre-vek inner loops.
//
// Bit-identical carries one caveat (see the package doc): when BOTH
// operands of a commutative op are NaNs with different payloads, the
// surviving payload depends on SSA operand order, which the complex128
// reference itself does not pin between compilations. Comparisons below are
// therefore payload-insensitive for NaN results (NaN == NaN) and exact to
// the bit for everything else — including which elements are NaN.

// genValue draws one float64 biased heavily toward IEEE-754 edge cases.
func genValue(r *rand.Rand) float64 {
	switch r.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		// Denormals: the 1/N-scaling exactness proof must hold below the
		// normal range too.
		return math.Float64frombits(uint64(r.Intn(1<<20)) + 1)
	case 6:
		return -math.Float64frombits(uint64(r.Intn(1<<20)) + 1)
	default:
		return (r.Float64()*2 - 1) * math.Ldexp(1, r.Intn(80)-40)
	}
}

// cline is a complex line whose quick.Generator produces awkward lengths
// (including 0) and edge-case values.
type cline []complex128

func (cline) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(67)
	xs := make(cline, n)
	for i := range xs {
		xs[i] = complex(genValue(r), genValue(r))
	}
	return reflect.ValueOf(xs)
}

// split returns freshly allocated SoA planes of xs.
func split(xs []complex128) (re, im []float64) {
	re = make([]float64, len(xs))
	im = make([]float64, len(xs))
	vek.Split(re, im, xs)
	return re, im
}

// bitsEqual compares two floats bit-for-bit, except that any NaN matches
// any NaN (payloads are the one compiler-unpinned detail).
func bitsEqual(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// planesEqual compares a plane pair against a complex line bit-for-bit
// (NaN payload-insensitive).
func planesEqual(re, im []float64, want []complex128) bool {
	if len(re) != len(want) || len(im) != len(want) {
		return false
	}
	for i, w := range want {
		if !bitsEqual(re[i], real(w)) || !bitsEqual(im[i], imag(w)) {
			return false
		}
	}
	return true
}

func floatsEqual(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !bitsEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
}

func TestButterflyColMatchesComplex(t *testing.T) {
	prop := func(lo, hi cline, wre, wim int64) bool {
		n := len(lo)
		if len(hi) < n {
			n = len(hi)
		}
		lo, hi = lo[:n], hi[:n]
		r := rand.New(rand.NewSource(wre ^ wim))
		w := complex(genValue(r), genValue(r))

		refLo := append([]complex128(nil), lo...)
		refHi := append([]complex128(nil), hi...)
		for c := range refLo { // the fftColumnsBlock inner loop, verbatim
			a := refLo[c]
			b := refHi[c] * w
			refLo[c] = a + b
			refHi[c] = a - b
		}

		loRe, loIm := split(lo)
		hiRe, hiIm := split(hi)
		vek.ButterflyCol(loRe, loIm, hiRe, hiIm, real(w), imag(w))
		return planesEqual(loRe, loIm, refLo) && planesEqual(hiRe, hiIm, refHi)
	}
	onBothPaths(func(path string) {
		if err := quick.Check(prop, quickCfg()); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	})
}

func TestButterflyRowMatchesComplex(t *testing.T) {
	prop := func(lo, hi, tw cline) bool {
		n := len(lo)
		if len(hi) < n {
			n = len(hi)
		}
		if len(tw) < n {
			n = len(tw)
		}
		lo, hi, tw = lo[:n], hi[:n], tw[:n]

		refLo := append([]complex128(nil), lo...)
		refHi := append([]complex128(nil), hi...)
		for k, w := range tw { // the fftPlanned stage loop, verbatim
			a := refLo[k]
			b := refHi[k] * w
			refLo[k] = a + b
			refHi[k] = a - b
		}

		loRe, loIm := split(lo)
		hiRe, hiIm := split(hi)
		twRe, twIm := split(tw)
		vek.ButterflyRow(loRe, loIm, hiRe, hiIm, twRe, twIm)
		return planesEqual(loRe, loIm, refLo) && planesEqual(hiRe, hiIm, refHi)
	}
	onBothPaths(func(path string) {
		if err := quick.Check(prop, quickCfg()); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	})
}

func TestCMulMatchesComplex(t *testing.T) {
	prop := func(a, b cline) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]

		ref := make([]complex128, n)
		for i := range ref { // the aerialFiltered filter apply, verbatim
			ref[i] = a[i] * b[i]
		}

		aRe, aIm := split(a)
		bRe, bIm := split(b)
		dstRe := make([]float64, n)
		dstIm := make([]float64, n)
		vek.CMul(dstRe, dstIm, aRe, aIm, bRe, bIm)
		if !planesEqual(dstRe, dstIm, ref) {
			return false
		}
		// Aliased destination (dst == a), as the in-place apply uses it.
		vek.CMul(aRe, aIm, aRe, aIm, bRe, bIm)
		return planesEqual(aRe, aIm, ref)
	}
	onBothPaths(func(path string) {
		if err := quick.Check(prop, quickCfg()); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	})
}

func TestAccIntensityMatchesComplex(t *testing.T) {
	prop := func(field cline, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := genValue(r)
		acc := make([]float64, len(field))
		for i := range acc {
			acc[i] = genValue(r)
		}

		ref := append([]float64(nil), acc...)
		for i, e := range field { // the Abbe intensity accumulate, verbatim
			re, im := real(e), imag(e)
			ref[i] += w * (re*re + im*im)
		}

		fRe, fIm := split(field)
		vek.AccIntensity(acc, fRe, fIm, w)
		return floatsEqual(acc, ref)
	}
	onBothPaths(func(path string) {
		if err := quick.Check(prop, quickCfg()); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	})
}

func TestScaleInvMatchesComplexDiv(t *testing.T) {
	divisors := []float64{1, 2, 4, 64, 256, 1024, 65536, 1 << 30, // pow2 fast path
		3, 6.5, 100, 255} // general mirror path
	prop := func(xs cline, pick uint8) bool {
		n := divisors[int(pick)%len(divisors)]

		ref := append([]complex128(nil), xs...)
		nC := complex(n, 0)
		for i := range ref { // the inverse-FFT scaling loop, verbatim
			ref[i] /= nC
		}

		re, im := split(xs)
		vek.ScaleInv(re, im, n)
		return planesEqual(re, im, ref)
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// correlateRowRef and accCorrelateColsRef are the scalar per-pixel tap
// loops of litho's Gaussian blur, verbatim apart from the explicit product
// rounding the kernels add (a no-op on amd64, where gc never fuses).
func correlateRowRef(dst, src, taps []float64) {
	for i := range dst {
		var s float64
		for t, w := range taps {
			s += float64(src[i+t] * w)
		}
		dst[i] = s
	}
}

func accCorrelateColsRef(dst, src []float64, stride int, taps []float64) {
	for i := range dst {
		s := dst[i]
		for t, w := range taps {
			s += float64(src[t*stride+i] * w)
		}
		dst[i] = s
	}
}

// floats draws n edge-case-biased values.
func floats(r *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = genValue(r)
	}
	return p
}

// onBothPaths runs fn on the dispatched kernels and, on AVX2 hosts, again
// with dispatch forced to the generic path.
func onBothPaths(fn func(path string)) {
	fn("dispatched")
	if vek.SIMDEnabled() {
		vek.ForceGeneric(func() { fn("generic") })
	}
}

func TestCorrelateMatchesScalar(t *testing.T) {
	onBothPaths(func(path string) {
		r := rand.New(rand.NewSource(3))
		for trial := 0; trial < 2000; trial++ {
			n := r.Intn(70)
			nt := 1 + r.Intn(40)
			taps := floats(r, nt)

			src := floats(r, n+nt-1)
			got, want := floats(r, n), make([]float64, n)
			vek.CorrelateRow(got, src, taps)
			correlateRowRef(want, src, taps)
			if !floatsEqual(got, want) {
				t.Fatalf("%s trial %d: CorrelateRow != scalar (n=%d taps=%d)", path, trial, n, nt)
			}

			// Strides from 0 (one row read for every tap) to past the
			// row length.
			stride := r.Intn(n + 4)
			plane := floats(r, (nt-1)*stride+n)
			got = floats(r, n)
			want = append(want[:0], got...)
			vek.AccCorrelateCols(got, plane, stride, taps)
			accCorrelateColsRef(want, plane, stride, taps)
			if !floatsEqual(got, want) {
				t.Fatalf("%s trial %d: AccCorrelateCols != scalar (n=%d taps=%d stride=%d)", path, trial, n, nt, stride)
			}
		}
	})
}

// TestSIMDMatchesGeneric pins the dispatch equivalence: every public
// kernel, run on the dispatched path (AVX2 assembly on AVX2 hosts) and
// again under ForceGeneric, must produce bit-identical planes. On hosts
// without AVX2 both runs take the generic path and the test is a
// tautology — it still runs, keeping the harness host-independent.
func TestSIMDMatchesGeneric(t *testing.T) {
	if !vek.SIMDEnabled() {
		t.Log("no AVX2 on this host: both runs take the generic path")
	}
	r := rand.New(rand.NewSource(7))
	cp := func(p []float64) []float64 { return append([]float64(nil), p...) }
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(67)
		loRe, loIm, hiRe, hiIm := floats(r, n), floats(r, n), floats(r, n), floats(r, n)
		twRe, twIm, acc0 := floats(r, n), floats(r, n), floats(r, n)
		wr, wi, w := genValue(r), genValue(r), genValue(r)
		nt := 1 + r.Intn(40)
		taps, row := floats(r, nt), floats(r, n+nt-1)
		stride := r.Intn(n + 4)
		plane := floats(r, (nt-1)*stride+n)

		names := []string{"ButterflyCol", "ButterflyRow", "CMul", "AccIntensity", "CorrelateRow", "AccCorrelateCols"}
		run := func() [][]float64 {
			bcLoRe, bcLoIm, bcHiRe, bcHiIm := cp(loRe), cp(loIm), cp(hiRe), cp(hiIm)
			vek.ButterflyCol(bcLoRe, bcLoIm, bcHiRe, bcHiIm, wr, wi)
			brLoRe, brLoIm, brHiRe, brHiIm := cp(loRe), cp(loIm), cp(hiRe), cp(hiIm)
			vek.ButterflyRow(brLoRe, brLoIm, brHiRe, brHiIm, twRe, twIm)
			dRe, dIm := make([]float64, n), make([]float64, n)
			vek.CMul(dRe, dIm, loRe, loIm, hiRe, hiIm)
			acc := cp(acc0)
			vek.AccIntensity(acc, loRe, loIm, w)
			cr, cc := make([]float64, n), cp(acc0)
			vek.CorrelateRow(cr, row, taps)
			vek.AccCorrelateCols(cc, plane, stride, taps)
			return [][]float64{
				append(append(append(bcLoRe, bcLoIm...), bcHiRe...), bcHiIm...),
				append(append(append(brLoRe, brLoIm...), brHiRe...), brHiIm...),
				append(dRe, dIm...), acc, cr, cc,
			}
		}
		got := run()
		var want [][]float64
		vek.ForceGeneric(func() { want = run() })
		for k := range got {
			if !floatsEqual(got[k], want[k]) {
				t.Fatalf("trial %d: %s SIMD != generic (n=%d)", trial, names[k], n)
			}
		}
	}
}

// join interleaves SoA planes back into a complex line.
func join(re, im []float64) []complex128 {
	out := make([]complex128, len(re))
	for i := range out {
		out[i] = complex(re[i], im[i])
	}
	return out
}

func TestSplitJoinRoundTrip(t *testing.T) {
	prop := func(xs cline) bool {
		out := join(split(xs))
		for i := range xs {
			if math.Float64bits(real(out[i])) != math.Float64bits(real(xs[i])) ||
				math.Float64bits(imag(out[i])) != math.Float64bits(imag(xs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestEmptyAndTinySpans exercises every kernel at lengths 0..7 explicitly —
// below, at and above the SIMD width and the unroll factor — so the
// empty-slice and tail paths are covered even if quick's random lengths
// miss one.
func TestEmptyAndTinySpans(t *testing.T) {
	for n := 0; n <= 7; n++ {
		xs := make([]complex128, n)
		for i := range xs {
			xs[i] = complex(float64(i)+0.5, -float64(i))
		}
		re, im := split(xs)
		vek.ButterflyCol(re, im, append([]float64(nil), re...), append([]float64(nil), im...), 0.6, -0.8)
		vek.ScaleInv(re, im, 4)
		vek.Zero(re)
		acc := make([]float64, n)
		vek.AccIntensity(acc, re, im, 0.25)
		taps := []float64{0.25, 0.5, 0.25}
		vek.CorrelateRow(acc, append(append([]float64{1}, acc...), 1), taps)
		vek.AccCorrelateCols(acc, make([]float64, 2*n+n), n, taps)
		for i := range re {
			if re[i] != 0 {
				t.Fatalf("n=%d: Zero left re[%d] = %g", n, i, re[i])
			}
		}
	}
}

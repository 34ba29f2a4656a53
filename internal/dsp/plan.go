package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"postopc/internal/dsp/vek"
)

// plan holds the precomputed tables of one radix-2 transform size: the
// bit-reversal permutation and the per-stage twiddle factors for both
// directions, stored as structure-of-arrays planes for the vek kernels.
// Twiddles are generated by the same w *= wstep recurrence the butterfly
// loop used before the tables existed, so a planned transform is
// bit-identical to the historical un-planned one — swapping table lookups
// for the recurrence must never move a result.
type plan struct {
	n   int
	rev []int32
	// fwdRe[s]/fwdIm[s] (and the inv pair) hold the size>>1 twiddles of
	// butterfly stage s (size = 2<<s), deinterleaved into real/imag planes.
	// The values are exactly the complex128 recurrence outputs — splitting a
	// complex into its two floats moves no bit.
	fwdRe, fwdIm, invRe, invIm [][]float64
}

// planCache maps transform size -> *plan. Plans are immutable once built
// and deterministic, so a racing double-build stores equal tables; the
// LoadOrStore keeps exactly one.
var planCache sync.Map

//postopc:allocfree
func planFor(n int) *plan {
	if p, ok := planCache.Load(n); ok {
		return p.(*plan)
	}
	p, _ := planCache.LoadOrStore(n, newPlan(n)) //postopc:nolint:allocbudget plan construction is the one-time cold path per transform size
	return p.(*plan)
}

func newPlan(n int) *plan {
	p := &plan{n: n, rev: make([]int32, n)}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	for _, inverse := range []bool{false, true} {
		var stagesRe, stagesIm [][]float64
		for size := 2; size <= n; size <<= 1 {
			half := size >> 1
			angle := 2 * math.Pi / float64(size)
			if !inverse {
				angle = -angle
			}
			wstep := cmplx.Exp(complex(0, angle))
			tw := make([]complex128, half)
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				tw[k] = w
				w *= wstep
			}
			twRe := make([]float64, half)
			twIm := make([]float64, half)
			vek.Split(twRe, twIm, tw)
			stagesRe = append(stagesRe, twRe)
			stagesIm = append(stagesIm, twIm)
		}
		if inverse {
			p.invRe, p.invIm = stagesRe, stagesIm
		} else {
			p.fwdRe, p.fwdIm = stagesRe, stagesIm
		}
	}
	return p
}

//postopc:allocfree
func (p *plan) twiddlePlanes(inverse bool) (re, im [][]float64) {
	if inverse {
		return p.invRe, p.invIm
	}
	return p.fwdRe, p.fwdIm
}

// swapSpans exchanges two equal-length float spans element by element — the
// bit-reversal permutation over plane rows.
//
//postopc:allocfree
func swapSpans(a, b []float64) {
	b = b[:len(a)]
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
}

// fftLinePlanes runs the in-place radix-2 transform over one contiguous
// line stored as re/im planes, applying the inverse 1/N scaling when
// inverse is set. Per element the float operation sequence is
// identical to the historical complex128 implementation: the butterfly
// stages run in the same (stage, start, k) order through vek.ButterflyRow,
// and the scaling mirrors x /= complex(n, 0) through vek.ScaleInv.
//
//postopc:allocfree
func fftLinePlanes(re, im []float64, p *plan, inverse bool) {
	for i, j := range p.rev {
		if int(j) > i {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	twRe, twIm := p.twiddlePlanes(inverse)
	for s := range twRe {
		size := 2 << uint(s)
		half := size >> 1
		for start := 0; start < p.n; start += size {
			vek.ButterflyRow(
				re[start:start+half], im[start:start+half],
				re[start+half:start+size], im[start+half:start+size],
				twRe[s], twIm[s])
		}
	}
	if inverse {
		vek.ScaleInv(re, im, float64(p.n))
	}
}

// columnBlockW is the width of one column block: 16 columns of float64
// planes span two 64-byte cache lines per plane row, enough for the
// butterfly loop to reuse every fetched line across the whole block.
const columnBlockW = 16

// fftColumnsBlockedPlanes transforms columns [0, cols) of the row-major
// nx-wide plane pair in place; columns from cols on are neither read nor
// written. Columns advance through the butterfly stages in blocks of
// adjacent columns so each cache line is reused across the whole block
// instead of being refetched per column. Within any single column the
// sequence of floating-point operations is identical to a 1-D transform of
// the gathered column, so results are unchanged; only the interleaving
// across (independent) columns differs. The inverse 1/N scaling is NOT
// applied here — callers scale grid-wide, which divides each element
// exactly once in the same way.
//
// live, when non-nil, marks the rows that may be nonzero, in bit-reversed
// order (see liveRows); every other row must hold +0 in both planes over
// the transformed columns. The pass then skips each bit-reversal swap and
// each butterfly whose two rows are both still +0. Such a butterfly would
// write +0 to both outputs — with ar = +0, ar+br and ar-br are +0 for
// either sign of br = +0·w — so skipping it moves no bit. A butterfly with
// one live row makes both outputs live; after stage s liveness is therefore
// uniform over aligned runs of size 2<<s rows, and a stage-s butterfly
// group is live exactly when its rows include a live one (anyLive).
//
//postopc:allocfree
func fftColumnsBlockedPlanes(re, im []float64, nx, cols int, live []uint64, p *plan, inverse bool) {
	n := p.n // number of rows
	twRe, twIm := p.twiddlePlanes(inverse)
	for c0 := 0; c0 < cols; c0 += columnBlockW {
		cw := min(columnBlockW, cols-c0)
		for i, j := range p.rev {
			if int(j) > i && (live == nil || anyLive(live, i, 1) || anyLive(live, int(j), 1)) {
				ri := i*nx + c0
				rj := int(j)*nx + c0
				swapSpans(re[ri:ri+cw], re[rj:rj+cw])
				swapSpans(im[ri:ri+cw], im[rj:rj+cw])
			}
		}
		for s := range twRe {
			size := 2 << uint(s)
			half := size >> 1
			sRe, sIm := twRe[s], twIm[s]
			for start := 0; start < n; start += size {
				if live != nil && !anyLive(live, start, size) {
					continue
				}
				base := start*nx + c0
				for k := range sRe {
					r1 := base + k*nx
					r2 := r1 + half*nx
					vek.ButterflyCol(
						re[r1:r1+cw:r1+cw], im[r1:r1+cw:r1+cw],
						re[r2:r2+cw:r2+cw], im[r2:r2+cw:r2+cw],
						sRe[k], sIm[k])
				}
			}
		}
	}
}

// liveRows marks in live (one bit per row, len(live) >= (p.n+63)/64
// words, zeroed) the bit-reversed position of every listed row: the row a
// listed row's data lands on after the column pass's bit reversal.
//
//postopc:allocfree
func liveRows(live []uint64, rows []int, p *plan) {
	for _, iy := range rows {
		r := uint(p.rev[iy])
		live[r>>6] |= 1 << (r & 63)
	}
}

// anyLive reports whether any of the size rows from start is marked in
// live. size is a power of two and start a multiple of it, so a run
// shorter than a word never straddles two words.
//
//postopc:allocfree
func anyLive(live []uint64, start, size int) bool {
	if size < 64 {
		return live[start>>6]>>(uint(start)&63)&(1<<uint(size)-1) != 0
	}
	for _, w := range live[start>>6 : (start+size)>>6] {
		if w != 0 {
			return true
		}
	}
	return false
}

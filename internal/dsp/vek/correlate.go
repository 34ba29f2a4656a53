package vek

// The two inner loops of the separable Gaussian blur (litho's fast model).
// Both compute a correlation
//
//	dst[i] = Σ_t x(i, t)·taps[t]
//
// per output element as the scalar reference loop does: the sum starts
// from +0 (or, for AccCorrelateCols, from dst's prior value), terms are
// added in tap order, and every product is rounded before its add (the
// explicit float64 conversions forbid fusing the multiply-add on any
// architecture). Blocking only changes which outputs are in flight
// together, never the operation sequence of one output, so the blocked
// kernels are bit-identical to the scalar loop.

// CorrelateRow correlates src with taps along the row:
//
//	dst[i] = Σ_t src[i+t]·taps[t]   for i in [0, len(dst))
//
// It computes four adjacent outputs per sweep of the taps, in four
// independent accumulators that share each tap load. src must hold at
// least len(dst)+len(taps)-1 elements; taps must not be empty.
//
//postopc:allocfree
func CorrelateRow(dst, src, taps []float64) {
	n, nt := len(dst), len(taps)
	src = src[:n+nt-1]
	if simdOn && n >= 4 {
		m := n &^ 3
		correlateRowSIMD(&dst[0], &src[0], &taps[0], nt, m)
		dst, src = dst[m:], src[m:]
	}
	correlateRowGeneric(dst, src, taps)
}

//postopc:allocfree
func correlateRowGeneric(dst, src, taps []float64) {
	n, nt := len(dst), len(taps)
	i := 0
	for ; i+4 <= n; i += 4 {
		// Window k of the block is src[i+k:], resliced to the tap count so
		// the indexing below carries no bounds checks.
		x0, x1 := src[i:i+nt], src[i+1:i+1+nt]
		x2, x3 := src[i+2:i+2+nt], src[i+3:i+3+nt]
		x0, x1, x2, x3 = x0[:len(taps)], x1[:len(taps)], x2[:len(taps)], x3[:len(taps)]
		var s0, s1, s2, s3 float64
		for t, w := range taps {
			s0 += float64(x0[t] * w)
			s1 += float64(x1[t] * w)
			s2 += float64(x2[t] * w)
			s3 += float64(x3[t] * w)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < n; i++ {
		win := src[i : i+nt]
		var s float64
		for t, w := range taps {
			s += float64(win[t] * w)
		}
		dst[i] = s
	}
}

// AccCorrelateCols adds a correlation down the columns of a row-major
// plane to dst: row t of src starts at element t·stride, and
//
//	dst[i] += src[t·stride+i]·taps[t]   for t = 0, 1, …, len(taps)-1
//
// one tap at a time, in order. Starting from a zeroed dst this is the
// column correlation; a stride of 0 reads the same row for every tap.
// Taps are applied four at a time with the element held in a register
// (v += r0[i]·w0; v += r1[i]·w1; …), so dst is read and written once per
// group and stays in L1 while the source rows stream past. src must hold
// at least (len(taps)-1)·stride+len(dst) elements.
//
//postopc:allocfree
func AccCorrelateCols(dst, src []float64, stride int, taps []float64) {
	n, nt := len(dst), len(taps)
	if nt == 0 {
		return
	}
	src = src[:(nt-1)*stride+n]
	if simdOn && n >= 4 {
		m := n &^ 3
		accCorrelateColsSIMD(&dst[0], &src[0], stride, &taps[0], nt, m)
		dst, src = dst[m:], src[m:]
	}
	accCorrelateColsGeneric(dst, src, stride, taps)
}

//postopc:allocfree
func accCorrelateColsGeneric(dst, src []float64, stride int, taps []float64) {
	n := len(dst)
	t := 0
	for ; t+4 <= len(taps); t += 4 {
		r0 := src[t*stride : t*stride+n]
		r1 := src[(t+1)*stride : (t+1)*stride+n]
		r2 := src[(t+2)*stride : (t+2)*stride+n]
		r3 := src[(t+3)*stride : (t+3)*stride+n]
		r0, r1, r2, r3 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)], r3[:len(dst)]
		w0, w1, w2, w3 := taps[t], taps[t+1], taps[t+2], taps[t+3]
		for i, v := range dst {
			v += float64(r0[i] * w0)
			v += float64(r1[i] * w1)
			v += float64(r2[i] * w2)
			v += float64(r3[i] * w3)
			dst[i] = v
		}
	}
	for ; t < len(taps); t++ {
		row := src[t*stride : t*stride+n]
		row = row[:len(dst)]
		w := taps[t]
		for i := range dst {
			dst[i] += float64(row[i] * w)
		}
	}
}

// AVX2 implementations of the vek kernels, assembled into every amd64
// build and dispatched at run time on hosts whose CPUID/XGETBV probe
// reports OS-enabled AVX2. Contract (see package doc): per-lane IEEE-754
// operations identical to the generic Go path — VMULPD/VADDPD/VSUBPD only,
// never VFMADD, never cross-lane arithmetic — so SIMD and generic planes
// are bit-identical. Every function requires n to be a multiple of 4 (the
// Go wrappers handle tails) and executes VZEROUPPER before returning per
// the AVX calling convention.
//
// Go assembly operand order for VEX three-operand instructions is
// reversed from Intel: `VSUBPD Ya, Yb, Yd` computes Yd = Yb - Ya.

#include "textflag.h"

// func butterflyColSIMD(loRe, loIm, hiRe, hiIm *float64, wr, wi float64, n int)
//
// Per lane: br = hr*wr - hi*wi; bi = hr*wi + hi*wr;
//           lo' = a + b; hi' = a - b.
TEXT ·butterflyColSIMD(SB), NOSPLIT, $0-56
	MOVQ loRe+0(FP), DI
	MOVQ loIm+8(FP), SI
	MOVQ hiRe+16(FP), DX
	MOVQ hiIm+24(FP), CX
	VBROADCASTSD wr+32(FP), Y4
	VBROADCASTSD wi+40(FP), Y5
	MOVQ n+48(FP), BX
	XORQ AX, AX

bcol_loop:
	CMPQ AX, BX
	JGE  bcol_done
	VMOVUPD (DX)(AX*8), Y2 // hr
	VMOVUPD (CX)(AX*8), Y3 // hi
	VMULPD  Y4, Y2, Y6     // hr*wr
	VMULPD  Y5, Y3, Y7     // hi*wi
	VSUBPD  Y7, Y6, Y6     // br = hr*wr - hi*wi
	VMULPD  Y5, Y2, Y7     // hr*wi
	VMULPD  Y4, Y3, Y8     // hi*wr
	VADDPD  Y8, Y7, Y7     // bi = hr*wi + hi*wr
	VMOVUPD (DI)(AX*8), Y0 // ar
	VMOVUPD (SI)(AX*8), Y1 // ai
	VADDPD  Y6, Y0, Y9     // ar+br
	VSUBPD  Y6, Y0, Y10    // ar-br
	VADDPD  Y7, Y1, Y11    // ai+bi
	VSUBPD  Y7, Y1, Y12    // ai-bi
	VMOVUPD Y9, (DI)(AX*8)
	VMOVUPD Y11, (SI)(AX*8)
	VMOVUPD Y10, (DX)(AX*8)
	VMOVUPD Y12, (CX)(AX*8)
	ADDQ    $4, AX
	JMP     bcol_loop

bcol_done:
	VZEROUPPER
	RET

// func butterflyRowSIMD(loRe, loIm, hiRe, hiIm, twRe, twIm *float64, n int)
//
// Same butterfly with per-element twiddles loaded from the tw planes.
TEXT ·butterflyRowSIMD(SB), NOSPLIT, $0-56
	MOVQ loRe+0(FP), DI
	MOVQ loIm+8(FP), SI
	MOVQ hiRe+16(FP), DX
	MOVQ hiIm+24(FP), CX
	MOVQ twRe+32(FP), R8
	MOVQ twIm+40(FP), R9
	MOVQ n+48(FP), BX
	XORQ AX, AX

brow_loop:
	CMPQ AX, BX
	JGE  brow_done
	VMOVUPD (R8)(AX*8), Y4 // wr
	VMOVUPD (R9)(AX*8), Y5 // wi
	VMOVUPD (DX)(AX*8), Y2 // hr
	VMOVUPD (CX)(AX*8), Y3 // hi
	VMULPD  Y4, Y2, Y6     // hr*wr
	VMULPD  Y5, Y3, Y7     // hi*wi
	VSUBPD  Y7, Y6, Y6     // br
	VMULPD  Y5, Y2, Y7     // hr*wi
	VMULPD  Y4, Y3, Y8     // hi*wr
	VADDPD  Y8, Y7, Y7     // bi
	VMOVUPD (DI)(AX*8), Y0 // ar
	VMOVUPD (SI)(AX*8), Y1 // ai
	VADDPD  Y6, Y0, Y9
	VSUBPD  Y6, Y0, Y10
	VADDPD  Y7, Y1, Y11
	VSUBPD  Y7, Y1, Y12
	VMOVUPD Y9, (DI)(AX*8)
	VMOVUPD Y11, (SI)(AX*8)
	VMOVUPD Y10, (DX)(AX*8)
	VMOVUPD Y12, (CX)(AX*8)
	ADDQ    $4, AX
	JMP     brow_loop

brow_done:
	VZEROUPPER
	RET

// func cmulSIMD(dstRe, dstIm, aRe, aIm, bRe, bIm *float64, n int)
//
// Per lane: dr = ar*br - ai*bi; di = ar*bi + ai*br. Loads complete before
// the lane's stores, so dst may alias a or b.
TEXT ·cmulSIMD(SB), NOSPLIT, $0-56
	MOVQ dstRe+0(FP), DI
	MOVQ dstIm+8(FP), SI
	MOVQ aRe+16(FP), DX
	MOVQ aIm+24(FP), CX
	MOVQ bRe+32(FP), R8
	MOVQ bIm+40(FP), R9
	MOVQ n+48(FP), BX
	XORQ AX, AX

cmul_loop:
	CMPQ AX, BX
	JGE  cmul_done
	VMOVUPD (DX)(AX*8), Y0 // ar
	VMOVUPD (CX)(AX*8), Y1 // ai
	VMOVUPD (R8)(AX*8), Y2 // br
	VMOVUPD (R9)(AX*8), Y3 // bi
	VMULPD  Y2, Y0, Y4     // ar*br
	VMULPD  Y3, Y1, Y5     // ai*bi
	VSUBPD  Y5, Y4, Y4     // dr
	VMULPD  Y3, Y0, Y5     // ar*bi
	VMULPD  Y2, Y1, Y6     // ai*br
	VADDPD  Y6, Y5, Y5     // di
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, (SI)(AX*8)
	ADDQ    $4, AX
	JMP     cmul_loop

cmul_done:
	VZEROUPPER
	RET

// func accIntensitySIMD(acc, re, im *float64, w float64, n int)
//
// Per lane: acc += w * (re*re + im*im), in that association.
TEXT ·accIntensitySIMD(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ re+8(FP), SI
	MOVQ im+16(FP), DX
	VBROADCASTSD w+24(FP), Y4
	MOVQ n+32(FP), BX
	XORQ AX, AX

acc_loop:
	CMPQ AX, BX
	JGE  acc_done
	VMOVUPD (SI)(AX*8), Y0 // r
	VMOVUPD (DX)(AX*8), Y1 // q
	VMULPD  Y0, Y0, Y2     // r*r
	VMULPD  Y1, Y1, Y3     // q*q
	VADDPD  Y3, Y2, Y2     // r*r + q*q
	VMULPD  Y4, Y2, Y2     // w * (...)
	VMOVUPD (DI)(AX*8), Y3 // acc
	VADDPD  Y2, Y3, Y3     // acc + w*(...)
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     acc_loop

acc_done:
	VZEROUPPER
	RET

// func correlateRowSIMD(dst, src, taps *float64, nt, n int)
//
// Lane k of an accumulator holds output i+k: s = +0, then per tap t in
// order s = s + src[i+k+t]*taps[t]. Sixteen outputs (four accumulators)
// are in flight per sweep of the taps, then four at a time.
TEXT ·correlateRowSIMD(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ taps+16(FP), DX
	MOVQ nt+24(FP), CX
	MOVQ n+32(FP), BX
	XORQ AX, AX

crow16:
	LEAQ 16(AX), R10
	CMPQ R10, BX
	JGT  crow4
	LEAQ (SI)(AX*8), R8 // window of output i
	XORQ R9, R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

crow16_tap:
	VBROADCASTSD (DX)(R9*8), Y4 // taps[t]
	VMOVUPD      (R8)(R9*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VMOVUPD      32(R8)(R9*8), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	VMOVUPD      64(R8)(R9*8), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	VMOVUPD      96(R8)(R9*8), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3
	INCQ         R9
	CMPQ         R9, CX
	JLT          crow16_tap
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, 32(DI)(AX*8)
	VMOVUPD      Y2, 64(DI)(AX*8)
	VMOVUPD      Y3, 96(DI)(AX*8)
	MOVQ         R10, AX
	JMP          crow16

crow4:
	CMPQ AX, BX
	JGE  crow_done
	LEAQ (SI)(AX*8), R8
	XORQ R9, R9
	VXORPD Y0, Y0, Y0

crow4_tap:
	VBROADCASTSD (DX)(R9*8), Y4
	VMOVUPD      (R8)(R9*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	INCQ         R9
	CMPQ         R9, CX
	JLT          crow4_tap
	VMOVUPD      Y0, (DI)(AX*8)
	ADDQ         $4, AX
	JMP          crow4

crow_done:
	VZEROUPPER
	RET

// func accCorrelateColsSIMD(dst, src *float64, stride int, taps *float64, nt, n int)
//
// Per lane, with the element held in a register for each group of four
// taps: v = dst; v = v + r0*w0; v = v + r1*w1; v = v + r2*w2;
// v = v + r3*w3; dst = v. The last nt mod 4 taps follow one at a time.
// Requires n >= 4.
TEXT ·accCorrelateColsSIMD(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), CX
	SHLQ $3, CX // row stride in bytes
	MOVQ taps+24(FP), DX
	MOVQ nt+32(FP), R11
	MOVQ n+40(FP), BX

acc4_group:
	CMPQ R11, $4
	JLT  acc1_tap
	LEAQ (SI)(CX*1), R8  // row 1
	LEAQ (R8)(CX*1), R9  // row 2
	LEAQ (R9)(CX*1), R10 // row 3
	VBROADCASTSD 0(DX), Y4
	VBROADCASTSD 8(DX), Y5
	VBROADCASTSD 16(DX), Y6
	VBROADCASTSD 24(DX), Y7
	XORQ AX, AX

acc4_loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y4, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (R8)(AX*8), Y2
	VMULPD  Y5, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD (R9)(AX*8), Y3
	VMULPD  Y6, Y3, Y3
	VADDPD  Y3, Y0, Y0
	VMOVUPD (R10)(AX*8), Y1
	VMULPD  Y7, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     acc4_loop
	LEAQ    (R10)(CX*1), SI // next group's row 0
	ADDQ    $32, DX
	SUBQ    $4, R11
	JMP     acc4_group

acc1_tap:
	TESTQ R11, R11
	JEQ   acc_cols_done
	VBROADCASTSD (DX), Y4
	XORQ AX, AX

acc1_loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y4, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     acc1_loop
	ADDQ    CX, SI
	ADDQ    $8, DX
	DECQ    R11
	JMP     acc1_tap

acc_cols_done:
	VZEROUPPER
	RET

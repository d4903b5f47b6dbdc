// AVX2 kernels for the batched forward pass, the weight-gradient
// accumulation and the Adam update. Bit-identity contract: every vector
// lane performs exactly the IEEE-754 operations of the scalar Go code, in
// the same order. In the forward kernel a lane is one (row, output)
// accumulator that starts at the bias and adds x[k]*w[k] terms in
// strictly ascending k; in the gradient kernel a lane is one gradient
// cell that adds its samples in ascending order; in the Adam kernel a
// lane is one parameter. Products and sums are separate VMULPD and VADDPD
// instructions, never FMA: fusing would drop the intermediate rounding
// step and change results in the last ulp. VDIVPD and VSQRTPD are
// correctly rounded, like their scalar counterparts.

#include "textflag.h"

// func cpuidAVX2() bool
TEXT ·cpuidAVX2(SB), NOSPLIT, $0-1
	// CPUID leaf 1: ECX[27] OSXSAVE, ECX[28] AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  novx

	// XGETBV: OS must preserve XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  novx

	// CPUID leaf 7 subleaf 0: EBX[5] AVX2.
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x20, BX
	JZ    novx

	MOVB $1, ret+0(FP)
	RET

novx:
	MOVB $0, ret+0(FP)
	RET

// func mm44avx2(z, xg, w, bias *float64, kn, out int64)
//
// Y0..Y3 hold the accumulators for outputs c0..c3; lane j of each is
// batch row j. Per k: one 32-byte load of the packed 4-row input column,
// four weight broadcasts, four mul+add pairs — 16 MACs on 16 independent
// chains. After the k loop the 4×4 tile is transposed in registers
// (unpack + 128-bit permute) so each batch row stores as one contiguous
// 4-output vector into z.
TEXT ·mm44avx2(SB), NOSPLIT, $0-48
	MOVQ z+0(FP), DI
	MOVQ xg+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ bias+24(FP), BX
	MOVQ kn+32(FP), CX
	MOVQ out+40(FP), R12

	// Weight row pointers: rows are kn*8 bytes apart.
	MOVQ CX, AX
	SHLQ $3, AX
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11

	// Accumulators start at the biases, as in the scalar path.
	VBROADCASTSD (BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3

loop:
	VMOVUPD      (SI), Y4
	VBROADCASTSD (R8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R9), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y1, Y1
	VBROADCASTSD (R10), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y2, Y2
	VBROADCASTSD (R11), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y3, Y3
	ADDQ         $32, SI
	ADDQ         $8, R8
	ADDQ         $8, R9
	ADDQ         $8, R10
	ADDQ         $8, R11
	DECQ         CX
	JNZ          loop

	// Transpose output-major accumulators to row-major tiles.
	VUNPCKLPD  Y1, Y0, Y6
	VUNPCKHPD  Y1, Y0, Y7
	VUNPCKLPD  Y3, Y2, Y8
	VUNPCKHPD  Y3, Y2, Y9
	VPERM2F128 $0x20, Y8, Y6, Y0
	VPERM2F128 $0x20, Y9, Y7, Y1
	VPERM2F128 $0x31, Y8, Y6, Y2
	VPERM2F128 $0x31, Y9, Y7, Y3

	// Store the four batch rows at stride out.
	SHLQ    $3, R12
	VMOVUPD Y0, (DI)
	ADDQ    R12, DI
	VMOVUPD Y1, (DI)
	ADDQ    R12, DI
	VMOVUPD Y2, (DI)
	ADDQ    R12, DI
	VMOVUPD Y3, (DI)
	VZEROUPPER
	RET

// func quantDot4(w *int8, stride int64, x *int16, blocks int64, lanes *int32)
//
// Integer dot products of 4 consecutive int8 weight rows (stride
// elements apart) against the int16 activation vector, over blocks×16
// elements. Per block: one 32-byte activation load, then per row a
// sign-extending 16×int8 load, VPMADDWD (16 products pair-summed to 8
// int32) and VPADDD into that row's lane accumulator. The 8 lanes per
// row are written to lanes[row*8..row*8+8] for the caller to fold —
// integer addition is associative, so lane order cannot change the sum.
TEXT ·quantDot4(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), R8
	MOVQ stride+8(FP), AX
	MOVQ x+16(FP), SI
	MOVQ blocks+24(FP), CX
	MOVQ lanes+32(FP), DI
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

qloop:
	VMOVDQU   (SI), Y4
	VPMOVSXBW (R8), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y0, Y0
	VPMOVSXBW (R9), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y1, Y1
	VPMOVSXBW (R10), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y2, Y2
	VPMOVSXBW (R11), Y5
	VPMADDWD  Y4, Y5, Y5
	VPADDD    Y5, Y3, Y3
	ADDQ      $32, SI
	ADDQ      $16, R8
	ADDQ      $16, R9
	ADDQ      $16, R10
	ADDQ      $16, R11
	DECQ      CX
	JNZ       qloop

	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VZEROUPPER
	RET

// func accum4avx2(gw, y0, y1, y2, y3 *float64, n int64, d0, d1, d2, d3 float64)
//
// Four gradient cells per iteration: load g[i:i+4], then for s = 0..3 a
// VMULPD of ds by ys[i:i+4] and a VADDPD into the running cells, then
// store. Each cell's chain is g + d0*y0 + d1*y1 + d2*y2 + d3*y3, left to
// right. Iterations touch disjoint cells, so the out-of-order core
// overlaps them without reordering any chain.
TEXT ·accum4avx2(SB), NOSPLIT, $0-80
	MOVQ         gw+0(FP), DI
	MOVQ         y0+8(FP), R8
	MOVQ         y1+16(FP), R9
	MOVQ         y2+24(FP), R10
	MOVQ         y3+32(FP), R11
	MOVQ         n+40(FP), CX
	VBROADCASTSD d0+48(FP), Y4
	VBROADCASTSD d1+56(FP), Y5
	VBROADCASTSD d2+64(FP), Y6
	VBROADCASTSD d3+72(FP), Y7
	XORQ         AX, AX

gloop:
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  (R8)(AX*8), Y4, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R9)(AX*8), Y5, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R10)(AX*8), Y6, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R11)(AX*8), Y7, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     gloop
	VZEROUPPER
	RET

// func adamAVX2(w, grad, mo, ve *float64, n int64, lr, inv, bc1, bc2, b1, c1, b2, c2, eps float64)
//
// Per lane, as in adam's scalar loop:
//   gi = g*inv; g = 0
//   mo = b1*mo + c1*gi
//   ve = b2*ve + (c2*gi)*gi
//   w  = w - (lr*(mo/bc1)) / (sqrt(ve/bc2) + eps)
// The nine scalars are broadcast once into Y7..Y15.
TEXT ·adamAVX2(SB), NOSPLIT, $0-112
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         mo+16(FP), DX
	MOVQ         ve+24(FP), R8
	MOVQ         n+32(FP), CX
	VBROADCASTSD lr+40(FP), Y7
	VBROADCASTSD inv+48(FP), Y8
	VBROADCASTSD bc1+56(FP), Y9
	VBROADCASTSD bc2+64(FP), Y10
	VBROADCASTSD b1+72(FP), Y11
	VBROADCASTSD c1+80(FP), Y12
	VBROADCASTSD b2+88(FP), Y13
	VBROADCASTSD c2+96(FP), Y14
	VBROADCASTSD eps+104(FP), Y15
	VXORPD       Y6, Y6, Y6
	XORQ         AX, AX

aloop:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  Y8, Y0, Y0
	VMOVUPD Y6, (SI)(AX*8)
	VMULPD  (DX)(AX*8), Y11, Y1
	VMULPD  Y12, Y0, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (DX)(AX*8)
	VMULPD  (R8)(AX*8), Y13, Y3
	VMULPD  Y14, Y0, Y2
	VMULPD  Y0, Y2, Y2
	VADDPD  Y2, Y3, Y3
	VMOVUPD Y3, (R8)(AX*8)
	VDIVPD  Y9, Y1, Y1
	VMULPD  Y7, Y1, Y1
	VDIVPD  Y10, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y1, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     aloop
	VZEROUPPER
	RET

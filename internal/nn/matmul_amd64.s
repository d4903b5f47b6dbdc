// AVX2 kernels for the forward pass, the weight-gradient accumulation
// and the Adam update. Bit-identity contract: every vector lane performs
// exactly the IEEE-754 operations of the scalar Go code, in the same
// order. In the two product kernels a lane is one accumulator — an output
// pre-activation or a weight-gradient cell — that starts at its bias or
// stored value and adds A[r][k]*B[k][o] terms in strictly ascending k:
// every k in the 4×8 tile, and in the 1-row gather strip the k whose A
// value is nonzero (gemm says why dropping a ±0 term is exact). In the
// Adam kernel a lane is one parameter. Products and sums are separate
// VMULPD and VADDPD instructions, never FMA: fusing would drop the
// intermediate rounding step and change results in the last ulp. VDIVPD
// and VSQRTPD are correctly rounded, like their scalar counterparts.

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

// func gemm4x8avx2(c, init, a, b *float64, mask *int64, kn, ldc, ldi, ar, ak, bk int64)
//
// A 4-row × 8-column tile of C = I + A·B. Y0..Y7 hold the accumulators,
// two vectors per row; lane o of a row's pair is column o. Per k: two
// loads of the B row, then per row one broadcast of A[r][k] and two
// mul+add pairs — 16 MACs on 8 independent vector chains. Strides arrive
// in elements and are scaled to bytes here. The init loads and the
// stores are masked; the B loads are not (see gemm), and the lanes past
// the mask are computed and discarded.
TEXT ·gemm4x8avx2(SB), NOSPLIT, $0-88
	MOVQ    mask+32(FP), AX
	VMOVDQU (AX), Y14
	VMOVDQU 32(AX), Y15

	// Accumulators start at the init rows (ldi 0: one shared bias row).
	MOVQ       init+8(FP), SI
	MOVQ       ldi+56(FP), DX
	SHLQ       $3, DX
	VMASKMOVPD (SI), Y14, Y0
	VMASKMOVPD 32(SI), Y15, Y1
	ADDQ       DX, SI
	VMASKMOVPD (SI), Y14, Y2
	VMASKMOVPD 32(SI), Y15, Y3
	ADDQ       DX, SI
	VMASKMOVPD (SI), Y14, Y4
	VMASKMOVPD 32(SI), Y15, Y5
	ADDQ       DX, SI
	VMASKMOVPD (SI), Y14, Y6
	VMASKMOVPD 32(SI), Y15, Y7

	// R8 walks A rows 0..2 (row r at R8 + r·ar), R11 walks row 3, R9
	// walks B.
	MOVQ a+16(FP), R8
	MOVQ b+24(FP), R9
	MOVQ kn+40(FP), CX
	MOVQ ar+64(FP), R10
	SHLQ $3, R10
	MOVQ ak+72(FP), AX
	SHLQ $3, AX
	MOVQ bk+80(FP), BX
	SHLQ $3, BX
	LEAQ (R8)(R10*2), R11
	ADDQ R10, R11

tloop:
	VMOVUPD      (R9), Y8
	VMOVUPD      32(R9), Y9
	VBROADCASTSD (R8), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y10
	VADDPD       Y10, Y1, Y1
	VBROADCASTSD (R8)(R10*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y10
	VADDPD       Y10, Y3, Y3
	VBROADCASTSD (R8)(R10*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y10
	VADDPD       Y10, Y5, Y5
	VBROADCASTSD (R11), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y10
	VADDPD       Y10, Y7, Y7
	ADDQ         AX, R8
	ADDQ         AX, R11
	ADDQ         BX, R9
	DECQ         CX
	JNZ          tloop

	MOVQ       c+0(FP), DI
	MOVQ       ldc+48(FP), DX
	SHLQ       $3, DX
	VMASKMOVPD Y0, Y14, (DI)
	VMASKMOVPD Y1, Y15, 32(DI)
	ADDQ       DX, DI
	VMASKMOVPD Y2, Y14, (DI)
	VMASKMOVPD Y3, Y15, 32(DI)
	ADDQ       DX, DI
	VMASKMOVPD Y4, Y14, (DI)
	VMASKMOVPD Y5, Y15, 32(DI)
	ADDQ       DX, DI
	VMASKMOVPD Y6, Y14, (DI)
	VMASKMOVPD Y7, Y15, 32(DI)
	VZEROUPPER
	RET

// func gemm1x32gather(c, init, b, x *float64, off *int64, nnz int64, mask *int64)
//
// A 1-row × 32-column strip of C = I + A·B over a compacted A row: eight
// vector accumulators Y0..Y7, and per listed term one broadcast of x[j],
// one load of its B row's byte offset and eight mul+add pairs on eight
// independent chains. When at most 16 columns are live (mask lane 16 is
// clear: a 16-output layer, or the last strip of a 175-output one), the
// strip runs on Y0..Y3 alone, half the multiplies and adds per term. The
// mask has one vector per accumulator, more than the free registers
// hold, so each is loaded into Y8 just before the masked init load or
// store that uses it. The B loads are not masked (see gemm); the lanes
// past the mask are computed and discarded.
TEXT ·gemm1x32gather(SB), NOSPLIT, $0-56
	MOVQ       mask+48(FP), AX
	MOVQ       init+8(FP), SI
	MOVQ       b+16(FP), R9
	MOVQ       x+24(FP), R8
	MOVQ       off+32(FP), DX
	MOVQ       nnz+40(FP), CX
	MOVQ       c+0(FP), DI
	VMOVDQU    (AX), Y8
	VMASKMOVPD (SI), Y8, Y0
	VMOVDQU    32(AX), Y8
	VMASKMOVPD 32(SI), Y8, Y1
	VMOVDQU    64(AX), Y8
	VMASKMOVPD 64(SI), Y8, Y2
	VMOVDQU    96(AX), Y8
	VMASKMOVPD 96(SI), Y8, Y3
	CMPQ       128(AX), $0
	JEQ        half
	VMOVDQU    128(AX), Y8
	VMASKMOVPD 128(SI), Y8, Y4
	VMOVDQU    160(AX), Y8
	VMASKMOVPD 160(SI), Y8, Y5
	VMOVDQU    192(AX), Y8
	VMASKMOVPD 192(SI), Y8, Y6
	VMOVDQU    224(AX), Y8
	VMASKMOVPD 224(SI), Y8, Y7
	TESTQ      CX, CX
	JZ         store8

loop8:
	VBROADCASTSD (R8), Y8
	MOVQ         (DX), BX
	VMULPD       (R9)(BX*1), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R9)(BX*1), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R9)(BX*1), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R9)(BX*1), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(R9)(BX*1), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(R9)(BX*1), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(R9)(BX*1), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       224(R9)(BX*1), Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         $8, R8
	ADDQ         $8, DX
	DECQ         CX
	JNZ          loop8

store8:
	VMOVDQU    128(AX), Y8
	VMASKMOVPD Y4, Y8, 128(DI)
	VMOVDQU    160(AX), Y8
	VMASKMOVPD Y5, Y8, 160(DI)
	VMOVDQU    192(AX), Y8
	VMASKMOVPD Y6, Y8, 192(DI)
	VMOVDQU    224(AX), Y8
	VMASKMOVPD Y7, Y8, 224(DI)
	JMP        store4

half:
	TESTQ CX, CX
	JZ    store4

loop4:
	VBROADCASTSD (R8), Y8
	MOVQ         (DX), BX
	VMULPD       (R9)(BX*1), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R9)(BX*1), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R9)(BX*1), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R9)(BX*1), Y8, Y12
	VADDPD       Y12, Y3, Y3
	ADDQ         $8, R8
	ADDQ         $8, DX
	DECQ         CX
	JNZ          loop4

store4:
	VMOVDQU    (AX), Y8
	VMASKMOVPD Y0, Y8, (DI)
	VMOVDQU    32(AX), Y8
	VMASKMOVPD Y1, Y8, 32(DI)
	VMOVDQU    64(AX), Y8
	VMASKMOVPD Y2, Y8, 64(DI)
	VMOVDQU    96(AX), Y8
	VMASKMOVPD Y3, Y8, 96(DI)
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

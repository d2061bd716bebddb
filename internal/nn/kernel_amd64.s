// AVX2 micro-kernels for the dense-layer matrix products. Bit-identity
// with the scalar kernels is load-bearing (trained weights must not
// depend on the host): every vector lane is one of the scalar path's
// accumulation chains, VMULPD/VADDPD round exactly like the scalar
// mul-then-add, and no FMA contraction is ever used.

#include "textflag.h"

// dotNT4x4AVX2 computes the four stride-4 partial-sum vectors of a 2×2
// output tile of A·Bᵀ over the first k4 elements (k4 ≡ 0 mod 4):
//
//	s[0][l] = Σ_{p ≡ l (4), p < k4} a0[p]·b0[p]   (likewise s[1]=a0·b1,
//	s[2]=a1·b0, s[3]=a1·b1)
//
// Lane l of each accumulator register IS scalar partial s_l, fed in the
// same ascending-p order, so the caller's s[0]+s[1]+s[2]+s[3] combine
// reproduces the scalar dot product bit for bit.
//
// func dotNT4x4AVX2(a0, a1, b0, b1 *float64, k4 int, s *[4][4]float64)
TEXT ·dotNT4x4AVX2(SB), NOSPLIT, $0-48
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ b0+16(FP), R8
	MOVQ b1+24(FP), R9
	MOVQ k4+32(FP), CX
	MOVQ s+40(FP), DX
	SHLQ $3, CX            // byte length of the k4 prefix
	VXORPD Y8, Y8, Y8      // acc a0·b0
	VXORPD Y9, Y9, Y9      // acc a0·b1
	VXORPD Y10, Y10, Y10   // acc a1·b0
	VXORPD Y11, Y11, Y11   // acc a1·b1
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $~63, BX          // 8-double (64-byte) unrolled prefix
	CMPQ AX, BX
	JGE  tail4

loop8:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD (DI)(AX*1), Y1
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD (R9)(AX*1), Y3
	VMULPD  Y2, Y0, Y4
	VADDPD  Y4, Y8, Y8
	VMULPD  Y3, Y0, Y5
	VADDPD  Y5, Y9, Y9
	VMULPD  Y2, Y1, Y6
	VADDPD  Y6, Y10, Y10
	VMULPD  Y3, Y1, Y7
	VADDPD  Y7, Y11, Y11
	VMOVUPD 32(SI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 32(R8)(AX*1), Y2
	VMOVUPD 32(R9)(AX*1), Y3
	VMULPD  Y2, Y0, Y4
	VADDPD  Y4, Y8, Y8
	VMULPD  Y3, Y0, Y5
	VADDPD  Y5, Y9, Y9
	VMULPD  Y2, Y1, Y6
	VADDPD  Y6, Y10, Y10
	VMULPD  Y3, Y1, Y7
	VADDPD  Y7, Y11, Y11
	ADDQ $64, AX
	CMPQ AX, BX
	JL   loop8

tail4:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD (DI)(AX*1), Y1
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD (R9)(AX*1), Y3
	VMULPD  Y2, Y0, Y4
	VADDPD  Y4, Y8, Y8
	VMULPD  Y3, Y0, Y5
	VADDPD  Y5, Y9, Y9
	VMULPD  Y2, Y1, Y6
	VADDPD  Y6, Y10, Y10
	VMULPD  Y3, Y1, Y7
	VADDPD  Y7, Y11, Y11
	ADDQ $32, AX
	JMP  tail4

done:
	VMOVUPD Y8, (DX)
	VMOVUPD Y9, 32(DX)
	VMOVUPD Y10, 64(DX)
	VMOVUPD Y11, 96(DX)
	VZEROUPPER
	RET

// axpy2AVX2 applies two fused axpy updates over the first m4 elements
// (m4 ≡ 0 mod 4): o[j] = (o[j] + a0·b0[j]) + a1·b1[j], with the inner
// parenthesization explicit in the instruction order — the same chain
// the scalar zero-skip kernel produces for two consecutive nonzero A
// entries.
//
// func axpy2AVX2(o, b0, b1 *float64, a0, a1 float64, m4 int)
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	VBROADCASTSD a0+24(FP), Y6
	VBROADCASTSD a1+32(FP), Y7
	MOVQ m4+40(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $~63, BX
	CMPQ AX, BX
	JGE  tail4

loop8:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y0
	VMOVUPD (R8)(AX*1), Y2
	VMULPD  Y7, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD 32(SI)(AX*1), Y4
	VMULPD  Y6, Y4, Y4
	VADDPD  32(DI)(AX*1), Y4, Y3
	VMOVUPD 32(R8)(AX*1), Y5
	VMULPD  Y7, Y5, Y5
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y3, 32(DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, BX
	JL   loop8

tail4:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y0
	VMOVUPD (R8)(AX*1), Y2
	VMULPD  Y7, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	JMP  tail4

done:
	VZEROUPPER
	RET

// axpy1AVX2 applies o[j] += a0·b0[j] over the first m4 elements
// (m4 ≡ 0 mod 4) — the trailing unpaired nonzero A entry of a k-block.
//
// func axpy1AVX2(o, b0 *float64, a0 float64, m4 int)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ b0+8(FP), SI
	VBROADCASTSD a0+16(FP), Y6
	MOVQ m4+24(FP), CX
	SHLQ $3, CX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $~63, BX
	CMPQ AX, BX
	JGE  tail4

loop8:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y0
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD 32(SI)(AX*1), Y3
	VMULPD  Y6, Y3, Y3
	VADDPD  32(DI)(AX*1), Y3, Y2
	VMOVUPD Y2, 32(DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, BX
	JL   loop8

tail4:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	JMP  tail4

done:
	VZEROUPPER
	RET

// narrowAVX2 accumulates four lanes of a narrow (m < 4 column) product
// for n steps t:
//
//	av = a[t·aStep + l·aLane]        (lane l = 0..3)
//	s[j][l] += av ≠ 0 ? av·b[t·bStep + j] : −0      (j < m)
//
// The compare is unordered-not-equal, so a NaN av counts as nonzero,
// and x + (−0) is x for every x: each lane is the zero-skip kernel's
// chain — the same products in ascending t, one rounding each —
// without a branch on the data. aLane, aStep and bStep count float64s;
// n ≥ 1 and 1 ≤ m ≤ 3.
//
// func narrowAVX2(s *[3][4]float64, a *float64, aLane, aStep int, b *float64, bStep, m, n int)
TEXT ·narrowAVX2(SB), NOSPLIT, $0-64
	MOVQ s+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aLane+16(FP), R8
	MOVQ aStep+24(FP), R9
	MOVQ b+32(FP), DX
	MOVQ bStep+40(FP), R10
	MOVQ m+48(FP), R12
	MOVQ n+56(FP), CX
	SHLQ $3, R8            // lane stride in bytes
	LEAQ (R8)(R8*2), R11   // three lane strides
	SHLQ $3, R9
	SHLQ $3, R10
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VXORPD Y13, Y13, Y13   // +0, the compare operand
	VPCMPEQQ Y14, Y14, Y14
	VPSLLQ $63, Y14, Y14   // −0, the neutral term

loop:
	VMOVSD  (SI), X4
	VMOVHPD (SI)(R8*1), X4, X4
	VMOVSD  (SI)(R8*2), X5
	VMOVHPD (SI)(R11*1), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VCMPPD $4, Y13, Y4, Y5 // lanes with av ≠ 0 (NEQ_UQ)
	VBROADCASTSD (DX), Y6
	VMULPD  Y6, Y4, Y6
	VBLENDVPD Y5, Y6, Y14, Y6
	VADDPD  Y0, Y6, Y0
	CMPQ R12, $2
	JLT  next
	VBROADCASTSD 8(DX), Y7
	VMULPD  Y7, Y4, Y7
	VBLENDVPD Y5, Y7, Y14, Y7
	VADDPD  Y1, Y7, Y1
	CMPQ R12, $3
	JLT  next
	VBROADCASTSD 16(DX), Y8
	VMULPD  Y8, Y4, Y8
	VBLENDVPD Y5, Y8, Y14, Y8
	VADDPD  Y2, Y8, Y2

next:
	ADDQ R9, SI
	ADDQ R10, DX
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VZEROUPPER
	RET

//go:build !purego

// AVX kernels for the scoring hot path. Every kernel performs the
// exact same per-element rounding sequence as its Go reference
// (axpy4Generic): vectorization is across independent output elements
// j, never across the accumulation axis, so results are bit-identical.
// TestAxpy4AsmMatchesGeneric pins this with random/NaN/Inf/-0 inputs.
//
// NaN-payload discipline: MULPD/ADDPD propagate the NaN of their FIRST
// source operand (src1), so operand order is part of the bit contract.
// The compiled Go reference for d[j] += a*b[j] propagates b's NaN over
// a's in the multiply and the product's NaN over d's in the add; every
// kernel below therefore loads b into a register and multiplies with b
// as src1 (memory operands can only be src2), and adds with the product
// as src1. In Go asm syntax (operands reversed from Intel) that reads
// VMULPD Ya, Yb, Ydst and VADDPD Yacc, Yprod, Yacc.

#include "textflag.h"

// func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)
// Executes CPUID with the given leaf and subleaf 0.
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
// Returns the low 32 bits of XCR0 (OS-enabled state: SSE=1, AVX=2).
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func axpy4avx(d, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)
//
// For j in [0,n): d[j] = (((d[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
// with each add rounded separately in that order (no FMA — fusing
// would change the rounding and break golden-verdict bit pinning).
TEXT ·axpy4avx(SB), NOSPLIT, $0-80
	MOVQ d+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), CX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	XORQ BX, BX
	MOVQ CX, R11
	ANDQ $-8, R11
	MOVQ CX, DX
	ANDQ $-4, DX

vec8:
	CMPQ BX, R11
	JGE  vec
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD 32(DI)(BX*8), Y6
	VMOVUPD (SI)(BX*8), Y5
	VMOVUPD 32(SI)(BX*8), Y7
	VMULPD  Y0, Y5, Y5
	VMULPD  Y0, Y7, Y7
	VADDPD  Y4, Y5, Y4
	VADDPD  Y6, Y7, Y6
	VMOVUPD (R8)(BX*8), Y5
	VMOVUPD 32(R8)(BX*8), Y7
	VMULPD  Y1, Y5, Y5
	VMULPD  Y1, Y7, Y7
	VADDPD  Y4, Y5, Y4
	VADDPD  Y6, Y7, Y6
	VMOVUPD (R9)(BX*8), Y5
	VMOVUPD 32(R9)(BX*8), Y7
	VMULPD  Y2, Y5, Y5
	VMULPD  Y2, Y7, Y7
	VADDPD  Y4, Y5, Y4
	VADDPD  Y6, Y7, Y6
	VMOVUPD (R10)(BX*8), Y5
	VMOVUPD 32(R10)(BX*8), Y7
	VMULPD  Y3, Y5, Y5
	VMULPD  Y3, Y7, Y7
	VADDPD  Y4, Y5, Y4
	VADDPD  Y6, Y7, Y6
	VMOVUPD Y4, (DI)(BX*8)
	VMOVUPD Y6, 32(DI)(BX*8)
	ADDQ    $8, BX
	JMP     vec8

vec:
	CMPQ BX, DX
	JGE  tail
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD (SI)(BX*8), Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD (R8)(BX*8), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD (R9)(BX*8), Y5
	VMULPD  Y2, Y5, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD (R10)(BX*8), Y5
	VMULPD  Y3, Y5, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD Y4, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     vec

tail:
	CMPQ BX, CX
	JGE  done
	VMOVSD (DI)(BX*8), X4
	VMOVSD (SI)(BX*8), X5
	VMULSD X0, X5, X5
	VADDSD X4, X5, X4
	VMOVSD (R8)(BX*8), X5
	VMULSD X1, X5, X5
	VADDSD X4, X5, X4
	VMOVSD (R9)(BX*8), X5
	VMULSD X2, X5, X5
	VADDSD X4, X5, X4
	VMOVSD (R10)(BX*8), X5
	VMULSD X3, X5, X5
	VADDSD X4, X5, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpy4avx512(d, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)
//
// AVX-512 variant of axpy4avx: identical per-element rounding
// sequence, 8 (or 16, unrolled) elements per pass.
TEXT ·axpy4avx512(SB), NOSPLIT, $0-80
	MOVQ d+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), CX
	VBROADCASTSD a0+48(FP), Z0
	VBROADCASTSD a1+56(FP), Z1
	VBROADCASTSD a2+64(FP), Z2
	VBROADCASTSD a3+72(FP), Z3
	XORQ BX, BX
	MOVQ CX, R11
	ANDQ $-16, R11
	MOVQ CX, DX
	ANDQ $-8, DX

zvec16:
	CMPQ BX, R11
	JGE  zvec8
	VMOVUPD (DI)(BX*8), Z4
	VMOVUPD 64(DI)(BX*8), Z6
	VMOVUPD (SI)(BX*8), Z5
	VMOVUPD 64(SI)(BX*8), Z7
	VMULPD  Z0, Z5, Z5
	VMULPD  Z0, Z7, Z7
	VADDPD  Z4, Z5, Z4
	VADDPD  Z6, Z7, Z6
	VMOVUPD (R8)(BX*8), Z5
	VMOVUPD 64(R8)(BX*8), Z7
	VMULPD  Z1, Z5, Z5
	VMULPD  Z1, Z7, Z7
	VADDPD  Z4, Z5, Z4
	VADDPD  Z6, Z7, Z6
	VMOVUPD (R9)(BX*8), Z5
	VMOVUPD 64(R9)(BX*8), Z7
	VMULPD  Z2, Z5, Z5
	VMULPD  Z2, Z7, Z7
	VADDPD  Z4, Z5, Z4
	VADDPD  Z6, Z7, Z6
	VMOVUPD (R10)(BX*8), Z5
	VMOVUPD 64(R10)(BX*8), Z7
	VMULPD  Z3, Z5, Z5
	VMULPD  Z3, Z7, Z7
	VADDPD  Z4, Z5, Z4
	VADDPD  Z6, Z7, Z6
	VMOVUPD Z4, (DI)(BX*8)
	VMOVUPD Z6, 64(DI)(BX*8)
	ADDQ    $16, BX
	JMP     zvec16

zvec8:
	CMPQ BX, DX
	JGE  ztail
	VMOVUPD (DI)(BX*8), Z4
	VMOVUPD (SI)(BX*8), Z5
	VMULPD  Z0, Z5, Z5
	VADDPD  Z4, Z5, Z4
	VMOVUPD (R8)(BX*8), Z5
	VMULPD  Z1, Z5, Z5
	VADDPD  Z4, Z5, Z4
	VMOVUPD (R9)(BX*8), Z5
	VMULPD  Z2, Z5, Z5
	VADDPD  Z4, Z5, Z4
	VMOVUPD (R10)(BX*8), Z5
	VMULPD  Z3, Z5, Z5
	VADDPD  Z4, Z5, Z4
	VMOVUPD Z4, (DI)(BX*8)
	ADDQ    $8, BX
	JMP     zvec8

ztail:
	CMPQ BX, CX
	JGE  zdone
	VMOVSD (DI)(BX*8), X4
	VMOVSD (SI)(BX*8), X5
	VMULSD X0, X5, X5
	VADDSD X4, X5, X4
	VMOVSD (R8)(BX*8), X5
	VMULSD X1, X5, X5
	VADDSD X4, X5, X4
	VMOVSD (R9)(BX*8), X5
	VMULSD X2, X5, X5
	VADDSD X4, X5, X4
	VMOVSD (R10)(BX*8), X5
	VMULSD X3, X5, X5
	VADDSD X4, X5, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    ztail

zdone:
	VZEROUPPER
	RET

// func axpy8avx512(d, b0, b1, b2, b3, b4, b5, b6, b7 *float64, n int, a0, a1, a2, a3, a4, a5, a6, a7 float64)
//
// Eight-tap variant: per element the eight adds are applied in
// ascending tap order, identical to two consecutive four-tap passes.
TEXT ·axpy8avx512(SB), NOSPLIT, $0-144
	MOVQ d+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ b4+40(FP), R11
	MOVQ b5+48(FP), R12
	MOVQ b6+56(FP), R13
	MOVQ b7+64(FP), R15
	MOVQ n+72(FP), CX
	VBROADCASTSD a0+80(FP), Z0
	VBROADCASTSD a1+88(FP), Z1
	VBROADCASTSD a2+96(FP), Z2
	VBROADCASTSD a3+104(FP), Z3
	VBROADCASTSD a4+112(FP), Z4
	VBROADCASTSD a5+120(FP), Z5
	VBROADCASTSD a6+128(FP), Z6
	VBROADCASTSD a7+136(FP), Z7
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-8, DX

y8vec:
	CMPQ BX, DX
	JGE  y8tail
	VMOVUPD (DI)(BX*8), Z8
	VMOVUPD (SI)(BX*8), Z9
	VMULPD  Z0, Z9, Z9
	VADDPD  Z8, Z9, Z8
	VMOVUPD (R8)(BX*8), Z9
	VMULPD  Z1, Z9, Z9
	VADDPD  Z8, Z9, Z8
	VMOVUPD (R9)(BX*8), Z9
	VMULPD  Z2, Z9, Z9
	VADDPD  Z8, Z9, Z8
	VMOVUPD (R10)(BX*8), Z9
	VMULPD  Z3, Z9, Z9
	VADDPD  Z8, Z9, Z8
	VMOVUPD (R11)(BX*8), Z9
	VMULPD  Z4, Z9, Z9
	VADDPD  Z8, Z9, Z8
	VMOVUPD (R12)(BX*8), Z9
	VMULPD  Z5, Z9, Z9
	VADDPD  Z8, Z9, Z8
	VMOVUPD (R13)(BX*8), Z9
	VMULPD  Z6, Z9, Z9
	VADDPD  Z8, Z9, Z8
	VMOVUPD (R15)(BX*8), Z9
	VMULPD  Z7, Z9, Z9
	VADDPD  Z8, Z9, Z8
	VMOVUPD Z8, (DI)(BX*8)
	ADDQ    $8, BX
	JMP     y8vec

y8tail:
	CMPQ BX, CX
	JGE  y8done
	VMOVSD (DI)(BX*8), X8
	VMOVSD (SI)(BX*8), X9
	VMULSD X0, X9, X9
	VADDSD X8, X9, X8
	VMOVSD (R8)(BX*8), X9
	VMULSD X1, X9, X9
	VADDSD X8, X9, X8
	VMOVSD (R9)(BX*8), X9
	VMULSD X2, X9, X9
	VADDSD X8, X9, X8
	VMOVSD (R10)(BX*8), X9
	VMULSD X3, X9, X9
	VADDSD X8, X9, X8
	VMOVSD (R11)(BX*8), X9
	VMULSD X4, X9, X9
	VADDSD X8, X9, X8
	VMOVSD (R12)(BX*8), X9
	VMULSD X5, X9, X9
	VADDSD X8, X9, X8
	VMOVSD (R13)(BX*8), X9
	VMULSD X6, X9, X9
	VADDSD X8, X9, X8
	VMOVSD (R15)(BX*8), X9
	VMULSD X7, X9, X9
	VADDSD X8, X9, X8
	VMOVSD X8, (DI)(BX*8)
	INCQ   BX
	JMP    y8tail

y8done:
	VZEROUPPER
	RET

// func axpy1avx512(d, b *float64, n int, a float64)
//
// AVX-512 variant of axpy1avx: identical rounding, 8 elements per pass.
TEXT ·axpy1avx512(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Z0
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-8, DX

z1vec:
	CMPQ BX, DX
	JGE  z1tail
	VMOVUPD (DI)(BX*8), Z4
	VMOVUPD (SI)(BX*8), Z5
	VMULPD  Z0, Z5, Z5
	VADDPD  Z4, Z5, Z4
	VMOVUPD Z4, (DI)(BX*8)
	ADDQ    $8, BX
	JMP     z1vec

z1tail:
	CMPQ BX, CX
	JGE  z1done
	VMOVSD (DI)(BX*8), X4
	VMOVSD (SI)(BX*8), X5
	VMULSD X0, X5, X5
	VADDSD X4, X5, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    z1tail

z1done:
	VZEROUPPER
	RET

// func axpy1avx(d, b *float64, n int, a float64)
//
// For j in [0,n): d[j] += a*b[j], one rounding for the multiply and
// one for the add, matching the scalar loop exactly.
TEXT ·axpy1avx(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-4, DX

vec1:
	CMPQ BX, DX
	JGE  tail1
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD (SI)(BX*8), Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y4, Y5, Y4
	VMOVUPD Y4, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     vec1

tail1:
	CMPQ BX, CX
	JGE  done1
	VMOVSD (DI)(BX*8), X4
	VMOVSD (SI)(BX*8), X5
	VMULSD X0, X5, X5
	VADDSD X4, X5, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    tail1

done1:
	VZEROUPPER
	RET

// func addConstAVX(d *float64, n int, c float64)
//
// For j in [0,n): d[j] += c, one rounding per element.
TEXT ·addConstAVX(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD c+16(FP), Y0
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-4, DX

avec:
	CMPQ BX, DX
	JGE  atail
	VMOVUPD (DI)(BX*8), Y4
	VADDPD  Y0, Y4, Y4
	VMOVUPD Y4, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     avec

atail:
	CMPQ BX, CX
	JGE  adone
	VMOVSD (DI)(BX*8), X4
	VADDSD X0, X4, X4
	VMOVSD X4, (DI)(BX*8)
	INCQ   BX
	JMP    atail

adone:
	VZEROUPPER
	RET

// func reluAVX(dst, src *float64, n int)
//
// dst[i] = src[i] if src[i] > 0 else 0, matching the Go reference for
// every input class: NaN compares false under the ordered GT_OQ
// predicate (-> 0), -0 > 0 is false (-> +0), and positives copy
// through unchanged.
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y0, Y0, Y0
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-4, DX

rvec:
	CMPQ BX, DX
	JGE  rtail
	VMOVUPD (SI)(BX*8), Y1
	VCMPPD  $0x1e, Y0, Y1, Y2
	VANDPD  Y2, Y1, Y1
	VMOVUPD Y1, (DI)(BX*8)
	ADDQ    $4, BX
	JMP     rvec

rtail:
	CMPQ BX, CX
	JGE  rdone
	VMOVSD (SI)(BX*8), X1
	VCMPSD $0x1e, X0, X1, X2
	VANDPD X2, X1, X1
	VMOVSD X1, (DI)(BX*8)
	INCQ   BX
	JMP    rtail

rdone:
	VZEROUPPER
	RET

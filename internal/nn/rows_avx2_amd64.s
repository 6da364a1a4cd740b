// Elementwise row kernels for AVX2 hosts (enabled in gemm_avx2_amd64.go):
// the per-element arithmetic of a recurrent step. Each lane, and each
// element of the scalar tail below a multiple of four, runs exactly the
// scalar Go expression's operations in its order and with its operand
// order, so results are bit-identical to the portable loops in mat.go.
// Lengths are checked by the Go callers.

#include "textflag.h"

// func addToAVX2(dst, src []float64)
//
// dst[i] += src[i] for i in [0, len(src)).
TEXT ·addToAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ BX, BX

add4:
	CMPQ BX, DX
	JGE  add1
	VMOVUPD (DI)(BX*8), Y0
	VADDPD (SI)(BX*8), Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	JMP  add4

add1:
	CMPQ BX, CX
	JGE  addret
	VMOVSD (DI)(BX*8), X0
	VADDSD (SI)(BX*8), X0, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ BX
	JMP  add1

addret:
	VZEROUPPER
	RET

// func add3AVX2(dst, a, b, c []float64)
//
// dst[i] = a[i] + b[i] + c[i] for i in [0, len(dst)).
TEXT ·add3AVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ BX, BX

add34:
	CMPQ BX, DX
	JGE  add31
	VMOVUPD (SI)(BX*8), Y0
	VADDPD (R8)(BX*8), Y0, Y0
	VADDPD (R9)(BX*8), Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	JMP  add34

add31:
	CMPQ BX, CX
	JGE  add3ret
	VMOVSD (SI)(BX*8), X0
	VADDSD (R8)(BX*8), X0, X0
	VADDSD (R9)(BX*8), X0, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ BX
	JMP  add31

add3ret:
	VZEROUPPER
	RET

// func hadamardAVX2(dst, a, b []float64)
//
// dst[i] = a[i] * b[i] for i in [0, len(a)).
TEXT ·hadamardAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), R8
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ BX, BX

mul4:
	CMPQ BX, DX
	JGE  mul1
	VMOVUPD (SI)(BX*8), Y0
	VMULPD (R8)(BX*8), Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	JMP  mul4

mul1:
	CMPQ BX, CX
	JGE  mulret
	VMOVSD (SI)(BX*8), X0
	VMULSD (R8)(BX*8), X0, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ BX
	JMP  mul1

mulret:
	VZEROUPPER
	RET

// func lerpAVX2(dst, z, a, b []float64)
//
// dst[i] = (1-z[i])*a[i] + z[i]*b[i] for i in [0, len(dst)).
TEXT ·lerpAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ z_base+24(FP), SI
	MOVQ a_base+48(FP), R8
	MOVQ b_base+72(FP), R9
	MOVQ CX, DX
	ANDQ $-4, DX
	XORQ BX, BX
	MOVQ $0x3FF0000000000000, AX // 1.0
	VMOVQ AX, X7
	VBROADCASTSD X7, Y7

lerp4:
	CMPQ BX, DX
	JGE  lerp1
	VMOVUPD (SI)(BX*8), Y1  // z
	VSUBPD Y1, Y7, Y2       // 1-z
	VMULPD (R8)(BX*8), Y2, Y2
	VMULPD (R9)(BX*8), Y1, Y3
	VADDPD Y3, Y2, Y2
	VMOVUPD Y2, (DI)(BX*8)
	ADDQ $4, BX
	JMP  lerp4

lerp1:
	CMPQ BX, CX
	JGE  lerpret
	VMOVSD (SI)(BX*8), X1
	VSUBSD X1, X7, X2
	VMULSD (R8)(BX*8), X2, X2
	VMULSD (R9)(BX*8), X1, X3
	VADDSD X3, X2, X2
	VMOVSD X2, (DI)(BX*8)
	INCQ BX
	JMP  lerp1

lerpret:
	VZEROUPPER
	RET

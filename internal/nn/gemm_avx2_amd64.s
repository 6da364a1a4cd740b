// AVX-512 and AVX2 microkernels of GemmNT and PackedNT.MulAdd (gemm.go).
//
// Bit-identity contract: SIMD here vectorizes ACROSS output columns, never
// within a dot product. Lane j of an accumulator register holds the partial
// sum of column j and is updated once per k in ascending order with a
// multiply followed by a separate add (VMULPD + VADDPD — never FMA, whose
// single rounding would change results). Each lane therefore computes
// exactly the scalar recurrence s = 0; s += a[k]*b[k] of dotRows, and the
// finished sum is added into C once, matching MatVec/MatVecAdd and the
// pure-Go GemmNT tile. The zmm and ymm kernels differ only in how many
// columns one instruction covers, so a product may split its columns
// between them.

#include "textflag.h"

// func gemmNTAVX512(a, bt, c []float64, m, k, n int)
//
// c[i*n+j] += Σ_k a[i*k+k'] * bt[k'*n+j] for i in [0, m), j in [0, n-n%32);
// operands as for gemmNTAVX2 below, which takes the columns left over.
TEXT ·gemmNTAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI   // a row cursor
	MOVQ bt_base+24(FP), DI // bt
	MOVQ c_base+48(FP), DX  // c row cursor
	MOVQ m+72(FP), R15      // row countdown
	MOVQ k+80(FP), R8       // K
	MOVQ n+88(FP), CX       // N = row stride of bt and c

	MOVQ CX, R9
	SHLQ $3, R9             // row stride in bytes

	TESTQ R15, R15
	JEQ   ret512

row512:
	XORQ BX, BX             // j

j32:
	MOVQ CX, AX
	SUBQ BX, AX             // columns left
	CMPQ AX, $32
	JLT  nextrow512

	// 32 columns: 4 zmm accumulators, the ymm kernel's 16-column block
	// at twice the width.
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

	LEAQ (DI)(BX*8), R10    // &bt[j]
	MOVQ SI, R11            // a k-cursor
	MOVQ R8, R12            // k countdown
	TESTQ R12, R12
	JEQ  store32

k32:
	VBROADCASTSD (R11), Z4
	VMULPD (R10), Z4, Z5
	VMULPD 64(R10), Z4, Z6
	VMULPD 128(R10), Z4, Z7
	VMULPD 192(R10), Z4, Z8
	VADDPD Z5, Z0, Z0
	VADDPD Z6, Z1, Z1
	VADDPD Z7, Z2, Z2
	VADDPD Z8, Z3, Z3
	ADDQ $8, R11
	ADDQ R9, R10
	DECQ R12
	JNZ  k32

store32:
	LEAQ (DX)(BX*8), R13
	VADDPD (R13), Z0, Z0
	VADDPD 64(R13), Z1, Z1
	VADDPD 128(R13), Z2, Z2
	VADDPD 192(R13), Z3, Z3
	VMOVUPD Z0, (R13)
	VMOVUPD Z1, 64(R13)
	VMOVUPD Z2, 128(R13)
	VMOVUPD Z3, 192(R13)
	ADDQ $32, BX
	JMP  j32

nextrow512:
	LEAQ (SI)(R8*8), SI     // a += K
	ADDQ R9, DX             // c += N
	DECQ R15
	JNZ  row512

ret512:
	VZEROUPPER
	RET

// func gemmNTAVX2(a, bt, c []float64, m, k, n, j0 int)
//
// c[i*n+j] += Σ_k a[i*k+k'] * bt[k'*n+j] for i in [0, m), j in [j0, n-n%4);
// the caller handles the columns before j0 and the last n%4. a is m x k
// row-major, bt is the k x n transposed weight panel, c is m x n row-major.
TEXT ·gemmNTAVX2(SB), NOSPLIT, $0-104
	MOVQ a_base+0(FP), SI   // a row cursor
	MOVQ bt_base+24(FP), DI // bt
	MOVQ c_base+48(FP), DX  // c row cursor
	MOVQ m+72(FP), R15      // row countdown
	MOVQ k+80(FP), R8       // K
	MOVQ n+88(FP), CX       // N = row stride of bt and c

	MOVQ CX, R9
	SHLQ $3, R9             // row stride in bytes

	TESTQ R15, R15
	JEQ   ret

row:
	MOVQ j0+96(FP), BX      // j

j16:
	MOVQ CX, AX
	SUBQ BX, AX             // columns left
	CMPQ AX, $16
	JLT  tail8

	// 16 columns: 4 ymm accumulators. 4 mul + 4 add per k saturates both
	// FP ports while each accumulator is reused only every 4th cycle,
	// hiding the VADDPD latency of its serial chain.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	LEAQ (DI)(BX*8), R10    // &bt[j]
	MOVQ SI, R11            // a k-cursor
	MOVQ R8, R12            // k countdown
	TESTQ R12, R12
	JEQ  store16

k16:
	VBROADCASTSD (R11), Y4
	VMULPD (R10), Y4, Y5
	VMULPD 32(R10), Y4, Y6
	VMULPD 64(R10), Y4, Y7
	VMULPD 96(R10), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, R11
	ADDQ R9, R10
	DECQ R12
	JNZ  k16

store16:
	LEAQ (DX)(BX*8), R13
	VADDPD (R13), Y0, Y0
	VADDPD 32(R13), Y1, Y1
	VADDPD 64(R13), Y2, Y2
	VADDPD 96(R13), Y3, Y3
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, 64(R13)
	VMOVUPD Y3, 96(R13)
	ADDQ $16, BX
	JMP  j16

tail8:
	CMPQ AX, $8
	JLT  tail4

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ (DI)(BX*8), R10
	MOVQ SI, R11
	MOVQ R8, R12
	TESTQ R12, R12
	JEQ  store8

k8:
	VBROADCASTSD (R11), Y4
	VMULPD (R10), Y4, Y5
	VMULPD 32(R10), Y4, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	ADDQ $8, R11
	ADDQ R9, R10
	DECQ R12
	JNZ  k8

store8:
	LEAQ (DX)(BX*8), R13
	VADDPD (R13), Y0, Y0
	VADDPD 32(R13), Y1, Y1
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	ADDQ $8, BX
	SUBQ $8, AX

tail4:
	CMPQ AX, $4
	JLT  nextrow

	VXORPD Y0, Y0, Y0
	LEAQ (DI)(BX*8), R10
	MOVQ SI, R11
	MOVQ R8, R12
	TESTQ R12, R12
	JEQ  store4

k4:
	VBROADCASTSD (R11), Y4
	VMULPD (R10), Y4, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $8, R11
	ADDQ R9, R10
	DECQ R12
	JNZ  k4

store4:
	LEAQ (DX)(BX*8), R13
	VADDPD (R13), Y0, Y0
	VMOVUPD Y0, (R13)

nextrow:
	LEAQ (SI)(R8*8), SI     // a += K
	ADDQ R9, DX             // c += N
	DECQ R15
	JNZ  row

ret:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

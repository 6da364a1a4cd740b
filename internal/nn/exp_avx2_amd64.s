// Vectorized sigmoid and tanh for AVX2+FMA hosts, in ymm blocks of four,
// and for AVX-512F+FMA hosts, in zmm blocks of eight plus the gate
// epilogues that fold a recurrent step's elementwise passes around them
// (all enabled in gemm_avx2_amd64.go). Like the GEMM microkernels, SIMD
// runs ACROSS elements: each lane executes, in the same order, exactly the
// operation sequence the scalar path executes for that element, so every
// lane's result is bit-identical to nn.Sigmoid or math.Tanh. Both are built
// on math.Exp's amd64 FMA path (exp_amd64.s, Shibata's method, constants
// copied verbatim), and are only enabled when math.Exp itself takes that
// path (AVX+FMA, mirroring math's useFMA), because the two scalar Exp
// variants round differently.
//
// A block holding a lane that needs special-case handling stops the vector
// sweep and the caller finishes with the scalar function, which takes the
// identical special-case branches.

#include "textflag.h"

// Every constant is stored four times, one per lane, so it can be a ymm
// memory operand.
#define CONST4(off, v) DATA expdata<>+(off)(SB)/8, v; DATA expdata<>+(off+8)(SB)/8, v; DATA expdata<>+(off+16)(SB)/8, v; DATA expdata<>+(off+24)(SB)/8, v

#define LOG2E 0
#define LN2U 32
#define LN2L 64
#define SIXTEENTH 96
#define EXP_C7 128
#define EXP_C6 160
#define EXP_C5 192
#define EXP_C4 224
#define EXP_C3 256
#define EXP_C2 288
#define HALF 320
#define ONE 352
#define TWO 384
#define ABS_MASK 416
#define POS_INF 448
#define SIGN_MASK 480
#define HALF_MAXLOG 512
#define TANH_SPLIT 544
#define TANH_P0 576
#define TANH_P1 608
#define TANH_P2 640
#define TANH_Q0 672
#define TANH_Q1 704
#define TANH_Q2 736
#define EXP_BIAS 768
#define EXP_BIAS64 784

CONST4(LOG2E, $1.4426950408889634073599246810018920)
CONST4(LN2U, $0.69314718055966295651160180568695068359375)
CONST4(LN2L, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(SIXTEENTH, $0.0625)
CONST4(EXP_C7, $2.4801587301587301587e-5)
CONST4(EXP_C6, $1.9841269841269841270e-4)
CONST4(EXP_C5, $1.3888888888888888889e-3)
CONST4(EXP_C4, $8.3333333333333333333e-3)
CONST4(EXP_C3, $4.1666666666666666667e-2)
CONST4(EXP_C2, $1.6666666666666666667e-1)
CONST4(HALF, $0.5)
CONST4(ONE, $1.0)
CONST4(TWO, $2.0)
CONST4(ABS_MASK, $0x7FFFFFFFFFFFFFFF)
CONST4(POS_INF, $0x7FF0000000000000)
CONST4(SIGN_MASK, $0x8000000000000000)
CONST4(HALF_MAXLOG, $0x404601e678fc457b) // 0.5*MAXLOG = 44.014845965556525
CONST4(TANH_SPLIT, $0.625)
CONST4(TANH_P0, $0xbfeedc5baafd6f4b) // math's tanhP and tanhQ, bit for bit
CONST4(TANH_P1, $0xc058d26a0e26682d)
CONST4(TANH_P2, $0xc0993ac030580563)
CONST4(TANH_Q0, $0x405c33f28a581b86)
CONST4(TANH_Q1, $0x40a176fa0e5535fa)
CONST4(TANH_Q2, $0x40b2ec102442040c)
DATA expdata<>+EXP_BIAS(SB)/4, $0x3FF // 4 x int32
DATA expdata<>+(EXP_BIAS+4)(SB)/4, $0x3FF
DATA expdata<>+(EXP_BIAS+8)(SB)/4, $0x3FF
DATA expdata<>+(EXP_BIAS+12)(SB)/4, $0x3FF
DATA expdata<>+EXP_BIAS64(SB)/8, $0x3FF // int64, for the zmm kernels
GLOBL expdata<>+0(SB), RODATA, $792

// EXP_FMA runs math.Exp's FMA path on t in Y1 up to the final scaling:
// e = int32(t*LOG2E) rounded per MXCSR like CVTSD2SL, argument reduction
// t -= e*LN2U; t -= e*LN2L; t *= 0.0625, the Taylor series in
// exp_amd64.s's coefficient order, then the (1+f)**16 reconstruction
// f = f*(f+2) four times, the last step fused with the final +1. It leaves
// the fraction in Y3 and e+bias as four int32 in X10, and clobbers Y1, Y2
// and Y4.
#define EXP_FMA \
	VMULPD expdata<>+LOG2E(SB), Y1, Y2; \
	VCVTPD2DQY Y2, X10; \
	VCVTDQ2PD X10, Y2; \
	VFNMADD231PD expdata<>+LN2U(SB), Y2, Y1; \
	VFNMADD231PD expdata<>+LN2L(SB), Y2, Y1; \
	VMULPD expdata<>+SIXTEENTH(SB), Y1, Y1; \
	VMOVUPD expdata<>+EXP_C7(SB), Y3; \
	VFMADD213PD expdata<>+EXP_C6(SB), Y1, Y3; \
	VFMADD213PD expdata<>+EXP_C5(SB), Y1, Y3; \
	VFMADD213PD expdata<>+EXP_C4(SB), Y1, Y3; \
	VFMADD213PD expdata<>+EXP_C3(SB), Y1, Y3; \
	VFMADD213PD expdata<>+EXP_C2(SB), Y1, Y3; \
	VFMADD213PD expdata<>+HALF(SB), Y1, Y3; \
	VFMADD213PD expdata<>+ONE(SB), Y1, Y3; \
	VMULPD Y3, Y1, Y3; \
	VADDPD expdata<>+TWO(SB), Y3, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD expdata<>+TWO(SB), Y3, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD expdata<>+TWO(SB), Y3, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD expdata<>+TWO(SB), Y3, Y4; \
	VFMADD213PD expdata<>+ONE(SB), Y4, Y3; \
	VPADDD expdata<>+EXP_BIAS(SB), X10, X10

// LDEXP scales Y3 by 2**(X10 - bias), exact for a biased exponent in
// [1, 2046]; clobbers Y5.
#define LDEXP \
	VPMOVSXDQ X10, Y5; \
	VPSLLQ $52, Y5, Y5; \
	VMULPD Y5, Y3, Y3

// func sigmoidVecAVX2(dst, x []float64) int
//
// dst[i] = Sigmoid(x[i]) for i in [0, ret); dst may alias x. Processes
// four lanes per iteration and returns early (a multiple of 4) at the
// first block containing a non-finite lane or one whose Exp(-|x|) leaves
// the normal range (|x| beyond ~708).
TEXT ·sigmoidVecAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ BX, BX             // processed

loop:
	MOVQ CX, AX
	SUBQ BX, AX
	CMPQ AX, $4
	JLT  done

	VMOVUPD (SI)(BX*8), Y0  // x

	// finite mask: +Inf > (x &^ sign), signed 64-bit compare
	VANDPD expdata<>+ABS_MASK(SB), Y0, Y6
	VMOVUPD expdata<>+POS_INF(SB), Y7
	VPCMPGTQ Y6, Y7, Y6

	// t = -|x|
	VORPD expdata<>+SIGN_MASK(SB), Y0, Y1
	EXP_FMA

	// normal-range mask (e+bias >= 1; t <= 0 rules out the overflow
	// side); bail before storing if any lane is special
	VPXOR X11, X11, X11
	VPCMPGTD X11, X10, X11
	VPMOVSXDQ X11, Y7
	VPAND Y7, Y6, Y6
	VMOVMSKPD Y6, AX
	CMPQ AX, $0xF
	JNE  done

	LDEXP                   // z = Exp(-|x|)

	// sigmoid: num/(1+z) with num = z where x < 0, else 1
	VADDPD expdata<>+ONE(SB), Y3, Y9
	VXORPD Y4, Y4, Y4
	VCMPPD $1, Y4, Y0, Y8   // x < 0 (ordered), like the scalar branch
	VMOVUPD expdata<>+ONE(SB), Y4
	VBLENDVPD Y8, Y3, Y4, Y8
	VDIVPD Y9, Y8, Y3
	VMOVUPD Y3, (DI)(BX*8)

	ADDQ $4, BX
	JMP  loop

done:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

// func tanhVecAVX2(dst, x []float64) int
//
// dst[i] = math.Tanh(x[i]) for i in [0, ret); dst may alias x. Each lane
// computes both of tanh.go's finite branches and keeps the one its |x|
// selects; returns early (a multiple of 4) at the first block holding a
// lane past 0.5*MAXLOG or a non-finite one, which scalar Tanh answers.
TEXT ·tanhVecAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	XORQ BX, BX             // processed

tloop:
	MOVQ CX, AX
	SUBQ BX, AX
	CMPQ AX, $4
	JLT  tdone

	VMOVUPD (SI)(BX*8), Y0  // x
	VANDPD expdata<>+ABS_MASK(SB), Y0, Y12 // z = |x|

	// every lane z <= 0.5*MAXLOG (ordered: false for NaN), or bail
	VCMPPD $0x12, expdata<>+HALF_MAXLOG(SB), Y12, Y13
	VMOVMSKPD Y13, AX
	CMPQ AX, $0xF
	JNE  tdone

	// z >= 0.625: 1 - 2/(Exp(2z)+1), negated where x < 0 (for the lanes
	// this branch answers, the sign bit of x says exactly that)
	VADDPD Y12, Y12, Y1     // 2*z, exact
	EXP_FMA
	LDEXP                   // s = Exp(2z); 2z <= MAXLOG keeps e in range
	VADDPD expdata<>+ONE(SB), Y3, Y3
	VMOVUPD expdata<>+TWO(SB), Y4
	VDIVPD Y3, Y4, Y4       // 2/(s+1)
	VMOVUPD expdata<>+ONE(SB), Y5
	VSUBPD Y4, Y5, Y5       // 1 - 2/(s+1)
	VANDPD expdata<>+SIGN_MASK(SB), Y0, Y6
	VXORPD Y6, Y5, Y5

	// otherwise: x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2), s = x*x,
	// in Go's evaluation order
	VMULPD Y0, Y0, Y6       // s
	VMULPD expdata<>+TANH_P0(SB), Y6, Y7
	VADDPD expdata<>+TANH_P1(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD expdata<>+TANH_P2(SB), Y7, Y7
	VADDPD expdata<>+TANH_Q0(SB), Y6, Y8
	VMULPD Y6, Y8, Y8
	VADDPD expdata<>+TANH_Q1(SB), Y8, Y8
	VMULPD Y6, Y8, Y8
	VADDPD expdata<>+TANH_Q2(SB), Y8, Y8
	VMULPD Y6, Y0, Y9       // x*s
	VMULPD Y7, Y9, Y9
	VDIVPD Y8, Y9, Y9
	VADDPD Y9, Y0, Y9       // x + x*s*P/Q

	// select by z >= 0.625; x == 0 returns x itself, keeping -0
	VCMPPD $0x1D, expdata<>+TANH_SPLIT(SB), Y12, Y13
	VBLENDVPD Y13, Y5, Y9, Y9
	VXORPD Y14, Y14, Y14
	VCMPPD $0, Y14, Y0, Y14
	VBLENDVPD Y14, Y0, Y9, Y9
	VMOVUPD Y9, (DI)(BX*8)

	ADDQ $4, BX
	JMP  tloop

tdone:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

// The zmm kernels below run eight lanes per block on AVX-512F+FMA hosts,
// each lane through the operation sequence of the ymm kernels above; every
// constant is a broadcast of the first copy in expdata. They use only
// AVX512F instructions (integer forms for the bitwise operations, KMOVW for
// the masks) and return early, at a multiple of 8, where the ymm kernels
// would.

// EXP8 is EXP_FMA on the eight lanes of t in Z1: the fraction in Z3, e+bias
// as eight int64 in Z10; clobbers Z1, Z2 and Z4.
#define EXP8 \
	VMULPD.BCST expdata<>+LOG2E(SB), Z1, Z2; \
	VCVTPD2DQ Z2, Y10; \
	VCVTDQ2PD Y10, Z2; \
	VFNMADD231PD.BCST expdata<>+LN2U(SB), Z2, Z1; \
	VFNMADD231PD.BCST expdata<>+LN2L(SB), Z2, Z1; \
	VMULPD.BCST expdata<>+SIXTEENTH(SB), Z1, Z1; \
	VBROADCASTSD expdata<>+EXP_C7(SB), Z3; \
	VFMADD213PD.BCST expdata<>+EXP_C6(SB), Z1, Z3; \
	VFMADD213PD.BCST expdata<>+EXP_C5(SB), Z1, Z3; \
	VFMADD213PD.BCST expdata<>+EXP_C4(SB), Z1, Z3; \
	VFMADD213PD.BCST expdata<>+EXP_C3(SB), Z1, Z3; \
	VFMADD213PD.BCST expdata<>+EXP_C2(SB), Z1, Z3; \
	VFMADD213PD.BCST expdata<>+HALF(SB), Z1, Z3; \
	VFMADD213PD.BCST expdata<>+ONE(SB), Z1, Z3; \
	VMULPD Z3, Z1, Z3; \
	VADDPD.BCST expdata<>+TWO(SB), Z3, Z4; \
	VMULPD Z4, Z3, Z3; \
	VADDPD.BCST expdata<>+TWO(SB), Z3, Z4; \
	VMULPD Z4, Z3, Z3; \
	VADDPD.BCST expdata<>+TWO(SB), Z3, Z4; \
	VMULPD Z4, Z3, Z3; \
	VADDPD.BCST expdata<>+TWO(SB), Z3, Z4; \
	VFMADD213PD.BCST expdata<>+ONE(SB), Z4, Z3; \
	VPMOVSXDQ Y10, Z10; \
	VPADDQ.BCST expdata<>+EXP_BIAS64(SB), Z10, Z10

// LDEXP8 scales Z3 by 2**(Z10 - bias), exact for a biased exponent in
// [1, 2046]; clobbers Z5.
#define LDEXP8 \
	VPSLLQ $52, Z10, Z5; \
	VMULPD Z5, Z3, Z3

// SIGMOID8 sets Z3 to Sigmoid of the eight lanes of Z0, or jumps to bail
// if any lane is non-finite or its Exp(-|x|) leaves the normal range.
// Clobbers Z1-Z11 and K1-K2.
#define SIGMOID8(bail) \
	VPANDQ.BCST expdata<>+ABS_MASK(SB), Z0, Z6; \
	VPCMPQ.BCST $1, expdata<>+POS_INF(SB), Z6, K1; \
	VPORQ.BCST expdata<>+SIGN_MASK(SB), Z0, Z1; \
	EXP8; \
	VPXORQ Z11, Z11, Z11; \
	VPCMPGTQ Z11, Z10, K1, K1; \
	KMOVW K1, AX; \
	CMPQ AX, $0xFF; \
	JNE bail; \
	LDEXP8; \
	VADDPD.BCST expdata<>+ONE(SB), Z3, Z9; \
	VCMPPD $1, Z11, Z0, K2; \
	VBROADCASTSD expdata<>+ONE(SB), Z8; \
	VBLENDMPD Z3, Z8, K2, Z8; \
	VDIVPD Z9, Z8, Z3

// TANH8 sets Z9 to math.Tanh of the eight lanes of Z0, or jumps to bail if
// any lane is past 0.5*MAXLOG or non-finite. It evaluates tanhVecAVX2's two
// branches, but each lane first picks its branch's numerator (2 or x*s*P)
// and denominator (Exp(2z)+1 or Q), so one division serves both with the
// operands the scalar branch divides. (At ymm width the two selects cost
// more than the division they save.) Clobbers Z1-Z14 and K1-K3.
#define TANH8(bail) \
	VPANDQ.BCST expdata<>+ABS_MASK(SB), Z0, Z12; \
	VCMPPD.BCST $0x12, expdata<>+HALF_MAXLOG(SB), Z12, K1; \
	KMOVW K1, AX; \
	CMPQ AX, $0xFF; \
	JNE bail; \
	VADDPD Z12, Z12, Z1; \
	EXP8; \
	LDEXP8; \
	VADDPD.BCST expdata<>+ONE(SB), Z3, Z3; \
	VMULPD Z0, Z0, Z6; \
	VMULPD.BCST expdata<>+TANH_P0(SB), Z6, Z7; \
	VADDPD.BCST expdata<>+TANH_P1(SB), Z7, Z7; \
	VMULPD Z6, Z7, Z7; \
	VADDPD.BCST expdata<>+TANH_P2(SB), Z7, Z7; \
	VADDPD.BCST expdata<>+TANH_Q0(SB), Z6, Z8; \
	VMULPD Z6, Z8, Z8; \
	VADDPD.BCST expdata<>+TANH_Q1(SB), Z8, Z8; \
	VMULPD Z6, Z8, Z8; \
	VADDPD.BCST expdata<>+TANH_Q2(SB), Z8, Z8; \
	VMULPD Z6, Z0, Z9; \
	VMULPD Z7, Z9, Z9; \
	VCMPPD.BCST $0x1D, expdata<>+TANH_SPLIT(SB), Z12, K2; \
	VBLENDMPD.BCST expdata<>+TWO(SB), Z9, K2, Z9; \
	VBLENDMPD Z3, Z8, K2, Z8; \
	VDIVPD Z8, Z9, Z9; \
	VBROADCASTSD expdata<>+ONE(SB), Z5; \
	VSUBPD Z9, Z5, Z5; \
	VPANDQ.BCST expdata<>+SIGN_MASK(SB), Z0, Z6; \
	VPXORQ Z6, Z5, Z5; \
	VADDPD Z9, Z0, Z9; \
	VBLENDMPD Z5, Z9, K2, Z9; \
	VPXORQ Z14, Z14, Z14; \
	VCMPPD $0, Z14, Z0, K3; \
	VBLENDMPD Z0, Z9, K3, Z9

// func sigmoidVecAVX512(dst, x []float64) int
//
// sigmoidVecAVX2 in blocks of eight.
TEXT ·sigmoidVecAVX512(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $-8, CX
	XORQ BX, BX

sloop8:
	CMPQ BX, CX
	JGE  sdone8
	VMOVUPD (SI)(BX*8), Z0
	SIGMOID8(sdone8)
	VMOVUPD Z3, (DI)(BX*8)
	ADDQ $8, BX
	JMP  sloop8

sdone8:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

// func tanhVecAVX512(dst, x []float64) int
//
// tanhVecAVX2 in blocks of eight.
TEXT ·tanhVecAVX512(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $-8, CX
	XORQ BX, BX

tloop8:
	CMPQ BX, CX
	JGE  tdone8
	VMOVUPD (SI)(BX*8), Z0
	TANH8(tdone8)
	VMOVUPD Z9, (DI)(BX*8)
	ADDQ $8, BX
	JMP  tloop8

tdone8:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

// func sigmoidAdd3AVX512(dst, a, b, c, m []float64) int
//
// dst[i] = Sigmoid(a[i]+b[i]+c[i]) for i in [0, ret), times m[i] when m is
// non-empty: Add3, SigmoidVec and Hadamard in one sweep over the blocks of
// eight of len(dst), stopping where sigmoidVecAVX512 would on the sums.
TEXT ·sigmoidAdd3AVX512(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	MOVQ m_base+96(FP), R10
	MOVQ m_len+104(FP), R11
	ANDQ $-8, CX
	XORQ BX, BX

aloop8:
	CMPQ BX, CX
	JGE  adone8
	VMOVUPD (SI)(BX*8), Z0
	VADDPD (R8)(BX*8), Z0, Z0
	VADDPD (R9)(BX*8), Z0, Z0
	SIGMOID8(adone8)
	TESTQ R11, R11
	JZ   astore8
	VMULPD (R10)(BX*8), Z3, Z3

astore8:
	VMOVUPD Z3, (DI)(BX*8)
	ADDQ $8, BX
	JMP  aloop8

adone8:
	MOVQ BX, ret+120(FP)
	VZEROUPPER
	RET

// func tanhAddLerpAVX512(dst, x, bias, z, h []float64) int
//
// dst[i] = (1-z[i])*h[i] + z[i]*math.Tanh(x[i]+bias[i]) for i in [0, ret):
// AddTo, TanhVec and Lerp in one sweep over the blocks of eight of
// len(dst), stopping where tanhVecAVX512 would on the sums. dst must not
// alias x, z or h.
TEXT ·tanhAddLerpAVX512(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ bias_base+48(FP), R8
	MOVQ z_base+72(FP), R9
	MOVQ h_base+96(FP), R10
	ANDQ $-8, CX
	XORQ BX, BX

lloop8:
	CMPQ BX, CX
	JGE  ldone8
	VMOVUPD (SI)(BX*8), Z0
	VADDPD (R8)(BX*8), Z0, Z0
	TANH8(ldone8)
	VMOVUPD (R9)(BX*8), Z1  // z
	VBROADCASTSD expdata<>+ONE(SB), Z2
	VSUBPD Z1, Z2, Z2       // 1-z
	VMULPD (R10)(BX*8), Z2, Z2
	VMULPD Z9, Z1, Z1
	VADDPD Z1, Z2, Z2
	VMOVUPD Z2, (DI)(BX*8)
	ADDQ $8, BX
	JMP  lloop8

ldone8:
	MOVQ BX, ret+120(FP)
	VZEROUPPER
	RET

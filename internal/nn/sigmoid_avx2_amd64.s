// Vectorized sigmoid for AVX2 hosts (enabled in gemm_avx2_amd64.go). Like
// the GEMM microkernel, SIMD runs ACROSS elements: each ymm lane
// executes, in the same order, exactly the
// operation sequence the scalar path executes for that element —
// math.Exp's amd64 FMA path (exp_amd64.s, Shibata's method, constants
// copied verbatim) on -|x|, then num/(1+z) with num selected by the sign
// of x — so every lane's result is bit-identical to nn.Sigmoid. The
// routine is only enabled when math.Exp itself takes the FMA path
// (AVX+FMA, mirroring math's useFMA), because the two scalar Exp variants
// round differently.
//
// Lanes that need math.Exp's special-case handling (non-finite input, or
// a 2**e scale outside the normal range — |x| beyond ~708) stop the
// vector sweep; the caller finishes with scalar Sigmoid, which takes the
// identical special-case branches of math.Exp.

#include "textflag.h"

DATA sigdata<>+0(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA sigdata<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA sigdata<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA sigdata<>+24(SB)/8, $1.4426950408889634073599246810018920
DATA sigdata<>+32(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA sigdata<>+40(SB)/8, $0.69314718055966295651160180568695068359375
DATA sigdata<>+48(SB)/8, $0.69314718055966295651160180568695068359375
DATA sigdata<>+56(SB)/8, $0.69314718055966295651160180568695068359375
DATA sigdata<>+64(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA sigdata<>+72(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA sigdata<>+80(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA sigdata<>+88(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA sigdata<>+96(SB)/8, $0.0625
DATA sigdata<>+104(SB)/8, $0.0625
DATA sigdata<>+112(SB)/8, $0.0625
DATA sigdata<>+120(SB)/8, $0.0625
DATA sigdata<>+128(SB)/8, $2.4801587301587301587e-5
DATA sigdata<>+136(SB)/8, $2.4801587301587301587e-5
DATA sigdata<>+144(SB)/8, $2.4801587301587301587e-5
DATA sigdata<>+152(SB)/8, $2.4801587301587301587e-5
DATA sigdata<>+160(SB)/8, $1.9841269841269841270e-4
DATA sigdata<>+168(SB)/8, $1.9841269841269841270e-4
DATA sigdata<>+176(SB)/8, $1.9841269841269841270e-4
DATA sigdata<>+184(SB)/8, $1.9841269841269841270e-4
DATA sigdata<>+192(SB)/8, $1.3888888888888888889e-3
DATA sigdata<>+200(SB)/8, $1.3888888888888888889e-3
DATA sigdata<>+208(SB)/8, $1.3888888888888888889e-3
DATA sigdata<>+216(SB)/8, $1.3888888888888888889e-3
DATA sigdata<>+224(SB)/8, $8.3333333333333333333e-3
DATA sigdata<>+232(SB)/8, $8.3333333333333333333e-3
DATA sigdata<>+240(SB)/8, $8.3333333333333333333e-3
DATA sigdata<>+248(SB)/8, $8.3333333333333333333e-3
DATA sigdata<>+256(SB)/8, $4.1666666666666666667e-2
DATA sigdata<>+264(SB)/8, $4.1666666666666666667e-2
DATA sigdata<>+272(SB)/8, $4.1666666666666666667e-2
DATA sigdata<>+280(SB)/8, $4.1666666666666666667e-2
DATA sigdata<>+288(SB)/8, $1.6666666666666666667e-1
DATA sigdata<>+296(SB)/8, $1.6666666666666666667e-1
DATA sigdata<>+304(SB)/8, $1.6666666666666666667e-1
DATA sigdata<>+312(SB)/8, $1.6666666666666666667e-1
DATA sigdata<>+320(SB)/8, $0.5
DATA sigdata<>+328(SB)/8, $0.5
DATA sigdata<>+336(SB)/8, $0.5
DATA sigdata<>+344(SB)/8, $0.5
DATA sigdata<>+352(SB)/8, $1.0
DATA sigdata<>+360(SB)/8, $1.0
DATA sigdata<>+368(SB)/8, $1.0
DATA sigdata<>+376(SB)/8, $1.0
DATA sigdata<>+384(SB)/8, $2.0
DATA sigdata<>+392(SB)/8, $2.0
DATA sigdata<>+400(SB)/8, $2.0
DATA sigdata<>+408(SB)/8, $2.0
DATA sigdata<>+416(SB)/8, $0x7FFFFFFFFFFFFFFF // abs mask
DATA sigdata<>+424(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA sigdata<>+432(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA sigdata<>+440(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA sigdata<>+448(SB)/8, $0x7FF0000000000000 // +Inf
DATA sigdata<>+456(SB)/8, $0x7FF0000000000000
DATA sigdata<>+464(SB)/8, $0x7FF0000000000000
DATA sigdata<>+472(SB)/8, $0x7FF0000000000000
DATA sigdata<>+480(SB)/4, $0x3FF // exponent bias, 4 x int32
DATA sigdata<>+484(SB)/4, $0x3FF
DATA sigdata<>+488(SB)/4, $0x3FF
DATA sigdata<>+492(SB)/4, $0x3FF
DATA sigdata<>+496(SB)/8, $0x8000000000000000 // sign mask
DATA sigdata<>+504(SB)/8, $0x8000000000000000
DATA sigdata<>+512(SB)/8, $0x8000000000000000
DATA sigdata<>+520(SB)/8, $0x8000000000000000
GLOBL sigdata<>+0(SB), RODATA, $528

// func sigmoidVecAVX2(dst, x []float64) int
//
// dst[i] = Sigmoid(x[i]) for i in [0, ret); dst may alias x. Processes
// four lanes per iteration and returns early (a multiple of 4) at the
// first block containing a lane Exp's fast path cannot handle.
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
	VANDPD sigdata<>+416(SB), Y0, Y6
	VMOVUPD sigdata<>+448(SB), Y7
	VPCMPGTQ Y6, Y7, Y6

	// t = -|x|; e = int32(t * LOG2E) rounded per MXCSR, like CVTSD2SL
	VORPD sigdata<>+496(SB), Y0, Y1
	VMULPD sigdata<>+0(SB), Y1, Y2
	VCVTPD2DQY Y2, X10
	VCVTDQ2PD X10, Y2

	// argument reduction: t -= e*LN2U; t -= e*LN2L; t *= 0.0625
	VFNMADD231PD sigdata<>+32(SB), Y2, Y1
	VFNMADD231PD sigdata<>+64(SB), Y2, Y1
	VMULPD sigdata<>+96(SB), Y1, Y1

	// Taylor series, identical coefficient order to exp_amd64.s
	VMOVUPD sigdata<>+128(SB), Y3
	VFMADD213PD sigdata<>+160(SB), Y1, Y3
	VFMADD213PD sigdata<>+192(SB), Y1, Y3
	VFMADD213PD sigdata<>+224(SB), Y1, Y3
	VFMADD213PD sigdata<>+256(SB), Y1, Y3
	VFMADD213PD sigdata<>+288(SB), Y1, Y3
	VFMADD213PD sigdata<>+320(SB), Y1, Y3
	VFMADD213PD sigdata<>+352(SB), Y1, Y3
	VMULPD Y3, Y1, Y3       // f = t * p

	// (1+f)**16 reconstruction: f = f*(f+2) four times, last step fused
	// with the final +1, matching the scalar avxfma tail exactly
	VADDPD sigdata<>+384(SB), Y3, Y4
	VMULPD Y4, Y3, Y3
	VADDPD sigdata<>+384(SB), Y3, Y4
	VMULPD Y4, Y3, Y3
	VADDPD sigdata<>+384(SB), Y3, Y4
	VMULPD Y4, Y3, Y3
	VADDPD sigdata<>+384(SB), Y3, Y4
	VFMADD213PD sigdata<>+352(SB), Y4, Y3

	// ldexp: e += bias; normal-range mask (e >= 1; t <= 0 rules out the
	// overflow side); bail before storing if any lane is special
	VPADDD sigdata<>+480(SB), X10, X10
	VPXOR X11, X11, X11
	VPCMPGTD X11, X10, X11
	VPMOVSXDQ X11, Y7
	VPAND Y7, Y6, Y6
	VMOVMSKPD Y6, AX
	CMPQ AX, $0xF
	JNE  done

	VPMOVSXDQ X10, Y5
	VPSLLQ $52, Y5, Y5
	VMULPD Y5, Y3, Y3       // z = f * 2**e = Exp(-|x|)

	// sigmoid: num/(1+z) with num = z where x < 0, else 1
	VADDPD sigdata<>+352(SB), Y3, Y9
	VXORPD Y4, Y4, Y4
	VCMPPD $1, Y4, Y0, Y8   // x < 0 (ordered), like the scalar branch
	VMOVUPD sigdata<>+352(SB), Y4
	VBLENDVPD Y8, Y3, Y4, Y8
	VDIVPD Y9, Y8, Y3
	VMOVUPD Y3, (DI)(BX*8)

	ADDQ $4, BX
	JMP  loop

done:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

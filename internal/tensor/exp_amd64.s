//go:build !race

#include "textflag.h"

// Rows of ·expLanes (gemm_amd64.go), eight lanes each, addressed off R11.
#define LO 0(R11)
#define HI 32(R11)
#define LOG2E 64(R11)
#define LN2HI 96(R11)
#define LN2LO 128(R11)
#define P0 160(R11)
#define P1 192(R11)
#define P2 224(R11)
#define P3 256(R11)
#define P4 288(R11)
#define P5 320(R11)
#define ONE 352(R11)
#define SIGN 384(R11)

// x = exp32(x) in each of eight lanes, step for step as the Go
// definition in exp.go; m, k, r and p are scratch. Each multiply and add
// is its own instruction (VMULPS then VADDPS, never an FMA).
//
//	m = x < lo                  lanes that end as 0 (NaN compares false)
//	x = hi < x ? hi : x         the clamp; a NaN x stays NaN
//	k = round(x*log2e)          VROUNDPS $0: to nearest, ties to even
//	r = x - k*ln2Hi, r -= k*ln2Lo
//	p = p0*r + p1, p = p*r + p2 .. p5, p = p*(r*r) + r + 1
//	x = ^m & (p's bits + k<<23)
#define EXP32(x, m, k, r, p) \
	VCMPPS    $1, LO, x, m; \
	VMOVUPS   HI, k; \
	VMINPS    x, k, x; \
	VMULPS    LOG2E, x, k; \
	VROUNDPS  $0, k, k; \
	VMULPS    LN2HI, k, r; \
	VSUBPS    r, x, r; \
	VMULPS    LN2LO, k, p; \
	VSUBPS    p, r, r; \
	VMULPS    P0, r, p; \
	VADDPS    P1, p, p; \
	VMULPS    r, p, p; \
	VADDPS    P2, p, p; \
	VMULPS    r, p, p; \
	VADDPS    P3, p, p; \
	VMULPS    r, p, p; \
	VADDPS    P4, p, p; \
	VMULPS    r, p, p; \
	VADDPS    P5, p, p; \
	VMULPS    r, r, x; \
	VMULPS    x, p, p; \
	VADDPS    r, p, p; \
	VADDPS    ONE, p, p; \
	VCVTPS2DQ k, k; \
	VPSLLD    $23, k, k; \
	VPADDD    k, p, p; \
	VANDNPS   p, m, x

// func maxAVX2(x *float32, n int, m float32) float32
//
// Each lane keeps its running maximum and takes an element only when it
// is strictly greater (VMAXPS returns its second source, the running
// maximum, on a tie or a NaN element), then the lanes are folded the
// same way. The value is the Go loop's: a maximum is order-independent,
// except for which of +0 and -0 is kept, and x - max is the same for
// both.
TEXT ·maxAVX2(SB), NOSPLIT, $0-28
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS m+16(FP), Y0

maxloop:
	VMOVUPS (DI), Y1
	VMAXPS  Y0, Y1, Y0
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     maxloop

	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X0, X1, X0
	VPERMILPS    $0x4e, X0, X1
	VMAXPS       X0, X1, X0
	VPERMILPS    $0xb1, X0, X1
	VMAXPS       X0, X1, X0
	VZEROUPPER
	MOVSS        X0, ret+24(FP)
	RET

// func expSubAVX2(x *float32, n int, m float32, part *[8]float64)
//
// Y6 and Y7 hold part[0:4] and part[4:8]: lane j of a block of eight is
// element i ≡ j (mod 8), so each part is one float64 chain in ascending
// i, as in Softmax's loop.
TEXT ·expSubAVX2(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS m+16(FP), Y5
	MOVQ         part+24(FP), DX
	VMOVUPD      (DX), Y6
	VMOVUPD      32(DX), Y7
	LEAQ         ·expLanes(SB), R11

exploop:
	VMOVUPS      (DI), Y0
	VSUBPS       Y5, Y0, Y0
	EXP32(Y0, Y1, Y2, Y3, Y4)
	VMOVUPS      Y0, (DI)
	VCVTPS2PD    X0, Y1
	VADDPD       Y1, Y6, Y6
	VEXTRACTF128 $1, Y0, X1
	VCVTPS2PD    X1, Y1
	VADDPD       Y1, Y7, Y7
	ADDQ         $32, DI
	SUBQ         $8, CX
	JNZ          exploop
	VMOVUPD      Y6, (DX)
	VMOVUPD      Y7, 32(DX)
	VZEROUPPER
	RET

// func scaleAVX2(x *float32, n int, s float32)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS s+16(FP), Y1

scaleloop:
	VMULPS  (DI), Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     scaleloop
	VZEROUPPER
	RET

// func siluMulAVX2(dst, gate, up *float32, n int)
//
// dst = v / (1 + exp32(-v)) * up: the negation flips the sign bit, as
// Go's does; VDIVPS and VMULPS round once each, as Go's / and * do.
TEXT ·siluMulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ gate+8(FP), SI
	MOVQ up+16(FP), DX
	MOVQ n+24(FP), CX
	LEAQ ·expLanes(SB), R11

siluloop:
	VMOVUPS (SI), Y5
	VXORPS  SIGN, Y5, Y0
	EXP32(Y0, Y1, Y2, Y3, Y4)
	VADDPS  ONE, Y0, Y0
	VDIVPS  Y0, Y5, Y0
	VMULPS  (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     siluloop
	VZEROUPPER
	RET

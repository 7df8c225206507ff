//go:build !race

#include "textflag.h"

// func dequantAVX2(dst *float32, ldd int, codes *float32, ldc int, scales *float32, lds, n, w int)
//
// For rows r < n and columns i < w (a positive multiple of eight), all
// in one scale group, sets
//
//	dst[r*ldd + i] = float32(int8 byte i of codes[r*ldc:]) * scales[r*lds]
//
// eight codes at a time: sign-extend to int32 (VPMOVSXBD), convert
// (exact) and multiply by the row's scale, one rounding as in the Go
// loop. n must be at least 1.
TEXT ·dequantAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ codes+16(FP), SI
	MOVQ ldc+24(FP), R9
	MOVQ scales+32(FP), DX
	MOVQ lds+40(FP), R10
	MOVQ n+48(FP), CX
	MOVQ w+56(FP), R11
	SHLQ $2, R8  // dst row stride in bytes
	SHLQ $2, R9  // code row stride in bytes
	SHLQ $2, R10 // scale row stride in bytes

deqrow:
	VBROADCASTSS (DX), Y1
	XORQ         AX, AX // column, which is also the code's byte offset

deqcol:
	VPMOVSXBD (SI)(AX*1), Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    Y1, Y0, Y0
	VMOVUPS   Y0, (DI)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, R11
	JLT       deqcol
	ADDQ      R8, DI
	ADDQ      R9, SI
	ADDQ      R10, DX
	DECQ      CX
	JNZ       deqrow
	VZEROUPPER
	RET

// y = round(y) half away from zero, exactly as math.Round, in four
// float64 lanes; t and s are scratch. VROUNDPD has no such mode, so
// truncate and step one away from zero where the dropped fraction
// |y - t| (exact: t is y with fraction bits cleared) is at least 1/2.
// Y6 holds 0.5, Y7 the sign bit, Y8 1.0 and Y9 the magnitude bits.
#define ROUND(y, t, s) \
	VROUNDPD $3, y, t; \
	VSUBPD   t, y, s; \
	VANDPD   Y9, s, s; \
	VCMPPD   $0x0d, Y6, s, s; \
	VANDPD   Y7, y, y; \
	VORPD    Y8, y, y; \
	VANDPD   s, y, y; \
	VADDPD   t, y, y

// func quantizeAVX2(codes, scales, src *float32, groups, group int) int
//
// Quantizes groups consecutive groups of group values (a positive
// multiple of eight) of src, as the Go loop does: scale = maxAbs/127 in
// float32 and code = round(float64(x) * (127/float64(maxAbs))) clamped to
// [-127, 127], written as one byte per code at codes' byte offset i (the
// words' little-endian packing). It stops at the first group that holds a
// NaN or an infinity or whose scale is 0 (all zeros, or an underflow),
// leaving that group's codes and scale unwritten, and returns the number
// of groups done.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-48
	MOVQ codes+0(FP), DI
	MOVQ scales+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ groups+24(FP), R8
	MOVQ group+32(FP), R9
	XORQ R10, R10 // groups done

	VPCMPEQD     Y5, Y5, Y5
	VPSRLD       $1, Y5, Y5 // float32 magnitude bits
	VPCMPEQQ     Y9, Y9, Y9
	VPSLLQ       $63, Y9, Y7 // float64 sign bit
	VPSRLQ       $1, Y9, Y9  // float64 magnitude bits
	MOVQ         $0x3fe0000000000000, AX
	VMOVQ        AX, X6
	VBROADCASTSD X6, Y6 // 0.5
	MOVQ         $0x3ff0000000000000, AX
	VMOVQ        AX, X8
	VBROADCASTSD X8, Y8 // 1.0
	MOVL         $0x007f007f, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, X10 // int16 127
	MOVL         $0xff81ff81, AX
	VMOVD        AX, X11
	VPBROADCASTD X11, X11 // int16 -127

qgroup:
	CMPQ R10, R8
	JGE  qdone

	// maxAbs of the group, and the lanes that saw a NaN.
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, AX
	MOVQ   R9, BX

qmax:
	VMOVUPS (AX), Y2
	VCMPPS  $3, Y2, Y2, Y3 // unordered: a NaN lane
	VORPS   Y3, Y1, Y1
	VANDPS  Y5, Y2, Y2
	VMAXPS  Y0, Y2, Y0
	ADDQ    $32, AX
	SUBQ    $8, BX
	JNZ     qmax

	VMOVMSKPS    Y1, AX
	TESTL        AX, AX
	JNZ          qdone
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X0, X1, X0
	VPERMILPS    $0x4e, X0, X1
	VMAXPS       X0, X1, X0
	VPERMILPS    $0xb1, X0, X1
	VMAXPS       X0, X1, X0

	// maxAbs must be finite and scale = maxAbs/127 nonzero.
	MOVL     $0x7f800000, AX // +Inf
	VMOVD    AX, X1
	VUCOMISS X1, X0
	JAE      qdone
	MOVL     $0x42fe0000, AX // 127
	VMOVD    AX, X1
	VDIVSS   X1, X0, X2
	VXORPS   X1, X1, X1
	VUCOMISS X1, X2
	JEQ      qdone
	VMOVSS   X2, (DX)(R10*4)

	// inv = 127 / float64(maxAbs), in every lane.
	VCVTSS2SD    X0, X0, X0
	MOVQ         $0x405fc00000000000, AX // 127
	VMOVQ        AX, X1
	VDIVSD       X0, X1, X1
	VBROADCASTSD X1, Y1
	MOVQ         R9, BX

qcodes:
	VCVTPS2PD   (SI), Y2
	VCVTPS2PD   16(SI), Y3
	VMULPD      Y1, Y2, Y2
	VMULPD      Y1, Y3, Y3
	ROUND(Y2, Y4, Y12)
	ROUND(Y3, Y4, Y12)
	VCVTTPD2DQY Y2, X2
	VCVTTPD2DQY Y3, X3
	VPACKSSDW   X3, X2, X2
	VPMINSW     X10, X2, X2
	VPMAXSW     X11, X2, X2
	VPACKSSWB   X2, X2, X2
	VMOVQ       X2, (DI)
	ADDQ        $32, SI
	ADDQ        $8, DI
	SUBQ        $8, BX
	JNZ         qcodes
	INCQ        R10
	JMP         qgroup

qdone:
	VZEROUPPER
	MOVQ R10, ret+40(FP)
	RET

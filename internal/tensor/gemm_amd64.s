//go:build !race

#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID.1:ECX reports OSXSAVE and AVX, XCR0 says
// the OS saves XMM and YMM state, and CPUID.7.0:EBX reports AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) | AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: SSE (bit 1) | AVX (bit 2) state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// One k step of one output column: acc += panel[kk][0:8] * b[j][kk],
// the product rounded before the sum (VMULPS then VADDPS, never FMA).
#define STEP(brow, tmp, acc) \
	VBROADCASTSS brow, tmp; \
	VMULPS       Y8, tmp, tmp; \
	VADDPS       tmp, acc, acc

// Store one finished output row and stop after the last live one.
#define STOREROW(n, lo, hi, sel) \
	CMPQ       R9, $n; \
	JLE        next; \
	ADDQ       R8, AX; \
	VPERM2F128 sel, hi, lo, Y8; \
	VMOVUPS    Y8, (AX)

// func gemmPanel8AVX2(dst *float32, ldd, rows int, panel *float32, k int, b *float32, ldb, nblk int)
//
// For one 8-row stripe held k-major in panel ([k][8], lane r = stripe
// row r) and nblk blocks of eight b rows, computes
//
//	dst[r*ldd + j] = sum over kk ascending of panel[kk*8+r] * b[j*ldb+kk]
//
// for r < rows and j < 8*nblk. Y0..Y7 are the eight output columns of a
// block, one lane per stripe row, so each output element is a single
// accumulator walking k in order. k and nblk must be at least 1.
TEXT ·gemmPanel8AVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ rows+16(FP), R9
	MOVQ panel+24(FP), SI
	MOVQ k+32(FP), R13
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R10
	MOVQ nblk+56(FP), R11
	SHLQ $2, R8             // dst row stride in bytes
	SHLQ $2, R10            // b row stride in bytes
	LEAQ (R10)(R10*2), R12  // three b rows
	MOVQ R13, CX
	SHLQ $5, CX
	ADDQ SI, CX             // panel end
	SHLQ $2, R13            // bytes of k in one b row

block:
	LEAQ   (BX)(R10*4), DX // b rows 4..7 of this block
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, AX

kstep:
	VMOVUPS (AX), Y8
	STEP((BX), Y9, Y0)
	STEP((BX)(R10*1), Y10, Y1)
	STEP((BX)(R10*2), Y11, Y2)
	STEP((BX)(R12*1), Y12, Y3)
	STEP((DX), Y9, Y4)
	STEP((DX)(R10*1), Y10, Y5)
	STEP((DX)(R10*2), Y11, Y6)
	STEP((DX)(R12*1), Y12, Y7)
	ADDQ    $32, AX
	ADDQ    $4, BX
	ADDQ    $4, DX
	CMPQ    AX, CX
	JNE     kstep

	// Transpose the 8x8 block (column registers -> row registers).
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	VUNPCKLPD Y10, Y8, Y0  // rows 0|4, cols 0..3
	VUNPCKHPD Y10, Y8, Y1  // rows 1|5
	VUNPCKLPD Y11, Y9, Y2  // rows 2|6
	VUNPCKHPD Y11, Y9, Y3  // rows 3|7
	VUNPCKLPD Y14, Y12, Y4 // rows 0|4, cols 4..7
	VUNPCKHPD Y14, Y12, Y5
	VUNPCKLPD Y15, Y13, Y6
	VUNPCKHPD Y15, Y13, Y7

	MOVQ       DI, AX
	VPERM2F128 $0x20, Y4, Y0, Y8
	VMOVUPS    Y8, (AX)
	STOREROW(1, Y1, Y5, $0x20)
	STOREROW(2, Y2, Y6, $0x20)
	STOREROW(3, Y3, Y7, $0x20)
	STOREROW(4, Y0, Y4, $0x31)
	STOREROW(5, Y1, Y5, $0x31)
	STOREROW(6, Y2, Y6, $0x31)
	STOREROW(7, Y3, Y7, $0x31)

next:
	SUBQ R13, BX
	LEAQ (BX)(R10*8), BX // next eight b rows
	ADDQ $32, DI         // next eight dst columns
	DECQ R11
	JNZ  block
	VZEROUPPER
	RET

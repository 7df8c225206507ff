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

// One row's step over sixteen (eight) lanes: acc += p * v[t], with
// v[t] in Y8 (and Y9), the product rounded before the sum.
#define ROW16(paddr, a0, a1) \
	VBROADCASTSS paddr, Y10; \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, a0, a0; \
	VMULPS       Y9, Y10, Y10; \
	VADDPS       Y10, a1, a1

#define ROW8(paddr, a0) \
	VBROADCASTSS paddr, Y10; \
	VMULPS       Y8, Y10, Y10; \
	VADDPS       Y10, a0, a0

// func axpyRowsAVX2(o *float32, ldo, rows int, p *float32, ldp int, v *float32, ldv, n, dim int)
//
// For rows (1 to 4) output rows and n rows of v computes
//
//	o[r*ldo + i] += p[r*ldp + t] * v[t*ldv + i]
//
// for i < dim, t ascending — each element one accumulator, as Axpy
// applied for t = 0, 1, ... Lanes run across i, sixteen at a time and
// then eight; dim must be a multiple of 8, n at least 1. Two callers
// share it: the GEMM over panel-stored weights (matMulPBlock: p is up
// to four rows of a, v one 16-column panel, t the reduction k) and
// attention's combine (combineVec: p is up to four heads' softmax
// rows, v a block of value rows, i across headDim). Each output row is
// loaded and stored once per lane block, each v row read once for all
// rows. The row count is tested inside the step, where the branches
// always go the same way; one CMPQ $2 serves the "one row" and "two
// rows" exits, as vector instructions leave the flags alone.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ o+0(FP), DI
	MOVQ ldo+8(FP), R8
	MOVQ rows+16(FP), R9
	MOVQ p+24(FP), SI
	MOVQ ldp+32(FP), R10
	MOVQ v+40(FP), BX
	MOVQ ldv+48(FP), R12
	MOVQ dim+64(FP), CX
	SHLQ $2, R8             // output row stride in bytes
	SHLQ $2, R10            // p row stride in bytes
	LEAQ (R10)(R10*2), R11  // three p rows
	SHLQ $2, R12            // v row stride in bytes

wide:
	CMPQ    CX, $16
	JLT     narrow
	LEAQ    (DI)(R8*2), AX  // output rows 2 and 3
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	CMPQ    R9, $2
	JLT     wrun
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	JEQ     wrun
	VMOVUPS (AX), Y4
	VMOVUPS 32(AX), Y5
	CMPQ    R9, $4
	JLT     wrun
	VMOVUPS (AX)(R8*1), Y6
	VMOVUPS 32(AX)(R8*1), Y7

wrun:
	MOVQ SI, AX
	MOVQ BX, DX
	MOVQ n+56(FP), R13

wstep:
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	ROW16((AX), Y0, Y1)
	CMPQ    R9, $2
	JLT     wnext
	ROW16((AX)(R10*1), Y2, Y3)
	JEQ     wnext
	ROW16((AX)(R10*2), Y4, Y5)
	CMPQ    R9, $4
	JLT     wnext
	ROW16((AX)(R11*1), Y6, Y7)

wnext:
	ADDQ $4, AX
	ADDQ R12, DX
	DECQ R13
	JNZ  wstep

	LEAQ    (DI)(R8*2), AX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	CMPQ    R9, $2
	JLT     wdone
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	JEQ     wdone
	VMOVUPS Y4, (AX)
	VMOVUPS Y5, 32(AX)
	CMPQ    R9, $4
	JLT     wdone
	VMOVUPS Y6, (AX)(R8*1)
	VMOVUPS Y7, 32(AX)(R8*1)

wdone:
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $16, CX
	JMP  wide

narrow:
	TESTQ   CX, CX
	JZ      done
	LEAQ    (DI)(R8*2), AX
	VMOVUPS (DI), Y0
	CMPQ    R9, $2
	JLT     nrun
	VMOVUPS (DI)(R8*1), Y2
	JEQ     nrun
	VMOVUPS (AX), Y4
	CMPQ    R9, $4
	JLT     nrun
	VMOVUPS (AX)(R8*1), Y6

nrun:
	MOVQ SI, AX
	MOVQ BX, DX
	MOVQ n+56(FP), R13

nstep:
	VMOVUPS (DX), Y8
	ROW8((AX), Y0)
	CMPQ    R9, $2
	JLT     nnext
	ROW8((AX)(R10*1), Y2)
	JEQ     nnext
	ROW8((AX)(R10*2), Y4)
	CMPQ    R9, $4
	JLT     nnext
	ROW8((AX)(R11*1), Y6)

nnext:
	ADDQ $4, AX
	ADDQ R12, DX
	DECQ R13
	JNZ  nstep

	LEAQ    (DI)(R8*2), AX
	VMOVUPS Y0, (DI)
	CMPQ    R9, $2
	JLT     done
	VMOVUPS Y2, (DI)(R8*1)
	JEQ     done
	VMOVUPS Y4, (AX)
	CMPQ    R9, $4
	JLT     done
	VMOVUPS Y6, (AX)(R8*1)

done:
	VZEROUPPER
	RET

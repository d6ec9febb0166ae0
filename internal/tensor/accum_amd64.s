//go:build !noasm

#include "textflag.h"

// Eight all-ones lanes, then eight zero lanes: the 32 bytes that start
// (8-c)*4 bytes in are the VMASKMOVPS mask of a vector's first c lanes.
DATA accumMask<>+0(SB)/8, $0xffffffffffffffff
DATA accumMask<>+8(SB)/8, $0xffffffffffffffff
DATA accumMask<>+16(SB)/8, $0xffffffffffffffff
DATA accumMask<>+24(SB)/8, $0xffffffffffffffff
DATA accumMask<>+32(SB)/8, $0
DATA accumMask<>+40(SB)/8, $0
DATA accumMask<>+48(SB)/8, $0
DATA accumMask<>+56(SB)/8, $0
GLOBL accumMask<>(SB), RODATA|NOPTR, $64

// ROW adds one k's term to one row of the tile: acc += alpha*b with b's
// sixteen columns in Y8 and Y9, a ±0 alpha included — its term is ±0 while b
// is finite, and the callers run the kernel only then. Operands are ordered
// as in axpyAVX2: b first in the multiply, the product first in the add.
#define ROW(alpha, acc0, acc1) \
	VBROADCASTSS alpha, Y10       \
	VMULPS       Y10, Y8, Y11     \
	VMULPS       Y10, Y9, Y12     \
	VADDPS       acc0, Y11, acc0  \
	VADDPS       acc1, Y12, acc1

// ROWS4 is one k of the whole tile; STEP moves on to the next k.
#define ROWS4 \
	ROW((DX), Y0, Y1)         \
	ROW((DX)(R9*1), Y2, Y3)   \
	ROW((DX)(R9*2), Y4, Y5)   \
	ROW((DX)(R10*1), Y6, Y7)

#define STEP(loop) \
	ADDQ R11, DX \
	ADDQ R12, BX \
	DECQ CX      \
	JNZ  loop

// func accumAVX2(dst *float32, rows, n int, a *float32, aRowStride, aKStride int, b *float32, k int, load bool)
//
// The unit of work is a tile of four rows by sixteen columns of dst: eight
// accumulators that stay in Y0–Y7 for all k, so the add chains of a narrow
// output are eight deep however few columns there are, and one load of a b
// row serves four rows. Per tile and k that is sixteen multiplies and adds
// against two loads of b and four broadcasts.
//
// Columns go sixteen at a time; the last 1–15 take the same tile under two
// lane masks, so there is no scalar tail. Rows go four at a time; each of
// the last 1–3 takes the tile alone with the row strides zeroed — four
// copies of one row computing, and storing to one place, the same bits.
//
// The dst and a arguments are advanced in place to the next row group.
TEXT ·accumAVX2(SB), NOSPLIT, $0-65
	MOVQ aKStride+40(FP), R11
	SHLQ $2, R11
	MOVQ n+16(FP), R12
	SHLQ $2, R12                  // bytes per row of dst and of b

rowgroup:
	MOVQ  rows+8(FP), AX
	TESTQ AX, AX
	JLE   done
	MOVQ  dst+0(FP), DI
	MOVQ  a+24(FP), SI
	MOVQ  R12, R8                 // byte stride between the tile's dst rows
	MOVQ  aRowStride+32(FP), R9
	SHLQ  $2, R9                  // and between their alphas
	CMPQ  AX, $4
	JLT   single
	SUBQ  $4, AX
	LEAQ  (DI)(R8*4), BX
	LEAQ  (SI)(R9*4), DX
	JMP   grouped

single:
	DECQ AX
	LEAQ (DI)(R8*1), BX
	LEAQ (SI)(R9*1), DX
	XORQ R8, R8
	XORQ R9, R9

grouped:
	MOVQ     AX, rows+8(FP)
	MOVQ     BX, dst+0(FP)
	MOVQ     DX, a+24(FP)
	LEAQ     (R9)(R9*2), R10
	MOVQ     n+16(FP), R13        // columns left in this row group
	VPCMPEQD Y14, Y14, Y14        // lane masks of columns 0–7 and 8–15
	VMOVDQU  Y14, Y15

cols:
	CMPQ    R13, $16
	JGE     tile
	MOVQ    $8, CX
	CMPQ    R13, CX
	CMOVQLT R13, CX               // min(left, 8) lanes of the first vector
	MOVQ    R13, DX
	SUBQ    CX, DX                // and what is left of the second
	LEAQ    accumMask<>+32(SB), AX
	NEGQ    CX
	NEGQ    DX
	VMOVDQU (AX)(CX*4), Y14
	VMOVDQU (AX)(DX*4), Y15

tile:
	MOVQ   n+16(FP), AX
	SUBQ   R13, AX
	MOVQ   b+48(FP), BX
	LEAQ   (BX)(AX*4), BX         // b[0][first column of the tile]
	MOVQ   SI, DX
	MOVQ   k+56(FP), CX
	LEAQ   (R8)(R8*2), AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	CMPB   load+64(FP), $0
	JEQ    start
	VMASKMOVPS (DI), Y14, Y0
	VMASKMOVPS 32(DI), Y15, Y1
	VMASKMOVPS (DI)(R8*1), Y14, Y2
	VMASKMOVPS 32(DI)(R8*1), Y15, Y3
	VMASKMOVPS (DI)(R8*2), Y14, Y4
	VMASKMOVPS 32(DI)(R8*2), Y15, Y5
	VMASKMOVPS (DI)(AX*1), Y14, Y6
	VMASKMOVPS 32(DI)(AX*1), Y15, Y7

start:
	TESTQ CX, CX
	JZ    store
	CMPQ  R13, $16
	JLT   masked

full:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	ROWS4
	STEP(full)
	JMP  store

masked:
	VMASKMOVPS (BX), Y14, Y8
	VMASKMOVPS 32(BX), Y15, Y9
	ROWS4
	STEP(masked)

store:
	LEAQ (R8)(R8*2), AX
	VMASKMOVPS Y0, Y14, (DI)
	VMASKMOVPS Y1, Y15, 32(DI)
	VMASKMOVPS Y2, Y14, (DI)(R8*1)
	VMASKMOVPS Y3, Y15, 32(DI)(R8*1)
	VMASKMOVPS Y4, Y14, (DI)(R8*2)
	VMASKMOVPS Y5, Y15, 32(DI)(R8*2)
	VMASKMOVPS Y6, Y14, (DI)(AX*1)
	VMASKMOVPS Y7, Y15, 32(DI)(AX*1)
	ADDQ $64, DI
	SUBQ $16, R13
	JGT  cols
	JMP  rowgroup

done:
	VZEROUPPER
	RET

//go:build !noasm

#include "textflag.h"

// GROUP4 adds one group of four k to the accumulator of the eight columns at
// byte offset off: ((p0+p1)+p2)+p3, then acc += that — dot's association.
// R9 points at the group's first bt row, R8 is the row pitch in bytes, R13
// three times it; Y0–Y3 hold the group's four a values.
#define GROUP4(off, acc, t, p) \
	VMULPS off(R9), Y0, t         \
	VMULPS off(R9)(R8*1), Y1, p   \
	VADDPS p, t, t                \
	VMULPS off(R9)(R8*2), Y2, p   \
	VADDPS p, t, t                \
	VMULPS off(R9)(R13*1), Y3, p  \
	VADDPS p, t, t                \
	VADDPS t, acc, acc

// ONE adds a single leftover k: acc += a[k]*bt[k][off...], a[k] in Y0.
#define ONE(off, acc, t) \
	VMULPS off(R9), Y0, t \
	VADDPS t, acc, acc

// func dotColsAVX2(out, a, bt []float32)
//
// Columns go 32 at a time (four independent accumulators hide the add
// latency), then 8 at a time; the caller guarantees len(out)%8 == 0. Every
// lane starts from +0 like dot's s, so a sum of negative zeros is +0 here too.
TEXT ·dotColsAVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), DX
	MOVQ bt_base+48(FP), BX
	LEAQ 0(CX*4), R8
	LEAQ (R8)(R8*2), R13

cols32:
	CMPQ   CX, $32
	JLT    cols8
	MOVQ   BX, R9
	MOVQ   SI, R10
	MOVQ   DX, R11
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	CMPQ   R11, $4
	JLT    tail32

group32:
	VBROADCASTSS (R10), Y0
	VBROADCASTSS 4(R10), Y1
	VBROADCASTSS 8(R10), Y2
	VBROADCASTSS 12(R10), Y3
	GROUP4(0, Y4, Y8, Y9)
	GROUP4(32, Y5, Y10, Y11)
	GROUP4(64, Y6, Y12, Y13)
	GROUP4(96, Y7, Y14, Y15)
	LEAQ (R9)(R8*4), R9
	ADDQ $16, R10
	SUBQ $4, R11
	CMPQ R11, $4
	JGE  group32

tail32:
	TESTQ R11, R11
	JZ    store32

one32:
	VBROADCASTSS (R10), Y0
	ONE(0, Y4, Y8)
	ONE(32, Y5, Y10)
	ONE(64, Y6, Y12)
	ONE(96, Y7, Y14)
	ADDQ R8, R9
	ADDQ $4, R10
	DECQ R11
	JNZ  one32

store32:
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $32, CX
	JMP     cols32

cols8:
	TESTQ  CX, CX
	JZ     done
	MOVQ   BX, R9
	MOVQ   SI, R10
	MOVQ   DX, R11
	VXORPS Y4, Y4, Y4
	CMPQ   R11, $4
	JLT    tail8

group8:
	VBROADCASTSS (R10), Y0
	VBROADCASTSS 4(R10), Y1
	VBROADCASTSS 8(R10), Y2
	VBROADCASTSS 12(R10), Y3
	GROUP4(0, Y4, Y8, Y9)
	LEAQ (R9)(R8*4), R9
	ADDQ $16, R10
	SUBQ $4, R11
	CMPQ R11, $4
	JGE  group8

tail8:
	TESTQ R11, R11
	JZ    store8

one8:
	VBROADCASTSS (R10), Y0
	ONE(0, Y4, Y8)
	ADDQ R8, R9
	ADDQ $4, R10
	DECQ R11
	JNZ  one8

store8:
	VMOVUPS Y4, (DI)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $8, CX
	JMP     cols8

done:
	VZEROUPPER
	RET

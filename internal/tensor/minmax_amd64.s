//go:build !noasm

#include "textflag.h"

// SCAN folds eight elements into one pair of accumulators. MINPS and MAXPS
// return their second source when either operand is NaN and when the two
// compare equal, so with the element first and the accumulator second a NaN
// element is skipped and a NaN accumulator stays — what `x < mn` and
// `x > mx` do in minMaxGo. The element has to be in a register for that: a
// memory operand can only be the second source.
#define SCAN(off, mn, mx) \
	VMOVUPS off, Y8     \
	VMINPS  mn, Y8, mn  \
	VMAXPS  mx, Y8, mx

// func minMaxAVX2(v []float32) (mn, mx float32)
//
// Every lane of every accumulator starts as v[0], never as an element of
// its own: a lane that started on a NaN would keep it, and the row is NaN
// only if v[0] is. The last len(v) mod 8 elements are covered by one group
// that overlaps its predecessor; min and max do not mind seeing an element
// twice.
TEXT ·minMaxAVX2(SB), NOSPLIT, $0-32
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	VBROADCASTSS (SI), Y0
	VMOVAPS      Y0, Y1
	VMOVAPS      Y0, Y2
	VMOVAPS      Y0, Y3
	VMOVAPS      Y0, Y4
	VMOVAPS      Y0, Y5
	VMOVAPS      Y0, Y6
	VMOVAPS      Y0, Y7
	SCAN(-32(SI)(CX*4), Y0, Y4)
	CMPQ         CX, $32
	JLT          check8

loop32:
	SCAN((SI), Y0, Y4)
	SCAN(32(SI), Y1, Y5)
	SCAN(64(SI), Y2, Y6)
	SCAN(96(SI), Y3, Y7)
	ADDQ $128, SI
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  loop32

check8:
	CMPQ CX, $8
	JLT  fold

loop8:
	SCAN((SI), Y0, Y4)
	ADDQ $32, SI
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  loop8

fold:
	// No accumulator is NaN unless all are, and equal values with different
	// bits — the two zeros — are the caller's to settle, so any order does.
	VMINPS       Y1, Y0, Y0
	VMINPS       Y3, Y2, Y2
	VMINPS       Y2, Y0, Y0
	VMAXPS       Y5, Y4, Y4
	VMAXPS       Y7, Y6, Y6
	VMAXPS       Y6, Y4, Y4
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y4, X5
	VMINPS       X1, X0, X0
	VMAXPS       X5, X4, X4
	VPERMILPS    $0x4E, X0, X1
	VPERMILPS    $0x4E, X4, X5
	VMINPS       X1, X0, X0
	VMAXPS       X5, X4, X4
	VPERMILPS    $0xB1, X0, X1
	VPERMILPS    $0xB1, X4, X5
	VMINPS       X1, X0, X0
	VMAXPS       X5, X4, X4
	VMOVSS       X0, mn+24(FP)
	VMOVSS       X4, mx+28(FP)
	VZEROUPPER
	RET

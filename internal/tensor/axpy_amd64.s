//go:build !noasm

#include "textflag.h"

// func axpyAVX2(dst, src []float32, alpha float32)
//
// When both inputs of an x86 multiply or add are NaN the result is the first
// source. The operands are ordered as the compiler orders them in axpyGo
// today (src first in the multiply, the product first in the add), so even
// NaN payloads agree with the portable loop in an ordinary build; a memory
// operand can only be the second source, hence src is loaded into a register
// and dst is added from memory.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSS alpha+48(FP), Y0
	CMPQ         CX, $32
	JLT          check8

loop32:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     loop32

check8:
	CMPQ CX, $8
	JLT  check1

loop8:
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     loop8

check1:
	TESTQ CX, CX
	JZ    done

loop1:
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

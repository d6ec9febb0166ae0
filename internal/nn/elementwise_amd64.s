//go:build !noasm

#include "textflag.h"

// Every kernel walks its slices eight lanes at a time, AX the element index
// and CX the common length (a positive multiple of 8). When both inputs of
// an x86 multiply or add are NaN the result is the first source, so each
// operation takes its operands in the order the compiler gives the Go loop
// today (x̂ first in γ·x̂ and in dy·x̂, the product first in dγ's add, dβ
// first in its own, the bracket first in inv·(…)), and even NaN payloads
// agree in an ordinary build; a memory operand can only be the second
// source.

// func normalizeAVX2(xh, out, x, g, b []float32, mean, inv float32)
TEXT ·normalizeAVX2(SB), NOSPLIT, $0-128
	MOVQ         xh_base+0(FP), DI
	MOVQ         out_base+24(FP), R8
	MOVQ         x_base+48(FP), SI
	MOVQ         x_len+56(FP), CX
	MOVQ         g_base+72(FP), R9
	MOVQ         b_base+96(FP), R10
	VBROADCASTSS mean+120(FP), Y0
	VBROADCASTSS inv+124(FP), Y1
	XORQ         AX, AX

normalizeLoop:
	VMOVUPS (SI)(AX*4), Y2
	VSUBPS  Y0, Y2, Y2          // x − mean
	VMULPS  Y1, Y2, Y2          // ·inv
	VMOVUPS Y2, (DI)(AX*4)
	VMULPS  (R9)(AX*4), Y2, Y3  // γ·x̂
	VADDPS  (R10)(AX*4), Y3, Y3 // + β
	VMOVUPS Y3, (R8)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     normalizeLoop
	VZEROUPPER
	RET

// func paramGradsAVX2(gg, gb, dy, xh []float32)
TEXT ·paramGradsAVX2(SB), NOSPLIT, $0-96
	MOVQ gg_base+0(FP), DI
	MOVQ gb_base+24(FP), R8
	MOVQ dy_base+48(FP), SI
	MOVQ dy_len+56(FP), CX
	MOVQ xh_base+72(FP), R9
	XORQ AX, AX

paramGradsLoop:
	VMOVUPS (SI)(AX*4), Y0
	VMOVUPS (R9)(AX*4), Y1
	VMULPS  Y0, Y1, Y1         // dy·x̂
	VADDPS  (DI)(AX*4), Y1, Y1 // + dγ
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS (R8)(AX*4), Y2
	VADDPS  Y0, Y2, Y2         // dβ + dy
	VMOVUPS Y2, (R8)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     paramGradsLoop
	VZEROUPPER
	RET

// func inputGradAVX2(dx, dy, g, xh []float32, inv, invD, a, s2 float32)
TEXT ·inputGradAVX2(SB), NOSPLIT, $0-112
	MOVQ         dx_base+0(FP), DI
	MOVQ         dy_base+24(FP), SI
	MOVQ         dy_len+32(FP), CX
	MOVQ         g_base+48(FP), R8
	MOVQ         xh_base+72(FP), R9
	VBROADCASTSS inv+96(FP), Y0
	VBROADCASTSS invD+100(FP), Y1
	VBROADCASTSS a+104(FP), Y2
	VBROADCASTSS s2+108(FP), Y3
	XORQ         AX, AX

inputGradLoop:
	VMOVUPS (SI)(AX*4), Y4
	VMULPS  (R8)(AX*4), Y4, Y4 // dy·γ
	VSUBPS  Y2, Y4, Y4         // − a
	VMOVUPS (R9)(AX*4), Y5
	VMULPS  Y1, Y5, Y5         // x̂·invD
	VMULPS  Y3, Y5, Y5         // ·s2
	VSUBPS  Y5, Y4, Y4
	VMULPS  Y0, Y4, Y4         // inv·(…)
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     inputGradLoop
	VZEROUPPER
	RET

// func reluForwardAVX2(out []float32, mask []uint32, x []float32)
TEXT ·reluForwardAVX2(SB), NOSPLIT, $0-72
	MOVQ   out_base+0(FP), DI
	MOVQ   mask_base+24(FP), R8
	MOVQ   x_base+48(FP), SI
	MOVQ   x_len+56(FP), CX
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX

reluForwardLoop:
	VMOVUPS (SI)(AX*4), Y1
	VCMPPS  $0x1e, Y0, Y1, Y2 // x > +0, GT_OQ: false on NaN
	VANDPS  Y1, Y2, Y3
	VMOVUPS Y3, (DI)(AX*4)
	VMOVUPS Y2, (R8)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     reluForwardLoop
	VZEROUPPER
	RET

// func reluBackwardAVX2(out, dy []float32, mask []uint32)
TEXT ·reluBackwardAVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ dy_base+24(FP), SI
	MOVQ dy_len+32(FP), CX
	MOVQ mask_base+48(FP), R8
	XORQ AX, AX

reluBackwardLoop:
	VMOVUPS (R8)(AX*4), Y0
	VANDPS  (SI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     reluBackwardLoop
	VZEROUPPER
	RET

// func dropoutForwardAVX2(out, mask, x []float32, draws []uint32, keep, scale float32)
TEXT ·dropoutForwardAVX2(SB), NOSPLIT, $0-104
	MOVQ         out_base+0(FP), DI
	MOVQ         mask_base+24(FP), R8
	MOVQ         x_base+48(FP), SI
	MOVQ         x_len+56(FP), CX
	MOVQ         draws_base+72(FP), R9
	VBROADCASTSS keep+96(FP), Y0
	VBROADCASTSS scale+100(FP), Y1
	MOVL         $0x33800000, DX // 2⁻²⁴
	VMOVD        DX, X2
	VBROADCASTSS X2, Y2
	XORQ         AX, AX

dropoutForwardLoop:
	VCVTDQ2PS (R9)(AX*4), Y3
	VMULPS    Y2, Y3, Y3     // draw/2²⁴
	VCMPPS    $0x11, Y0, Y3, Y3 // < keep, LT_OQ
	VMOVUPS   (SI)(AX*4), Y4
	VMULPS    Y1, Y4, Y4     // x·scale
	VANDPS    Y3, Y4, Y4
	VMOVUPS   Y4, (DI)(AX*4)
	VANDPS    Y1, Y3, Y5     // scale or +0
	VMOVUPS   Y5, (R8)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLT       dropoutForwardLoop
	VZEROUPPER
	RET

// func dropoutBackwardAVX2(out, dy, mask []float32)
TEXT ·dropoutBackwardAVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ dy_base+24(FP), SI
	MOVQ dy_len+32(FP), CX
	MOVQ mask_base+48(FP), R8
	XORQ AX, AX

dropoutBackwardLoop:
	VMOVUPS (SI)(AX*4), Y0
	VMULPS  (R8)(AX*4), Y0, Y0 // dy·mask
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     dropoutBackwardLoop
	VZEROUPPER
	RET

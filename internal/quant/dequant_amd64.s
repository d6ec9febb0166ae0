//go:build !noasm

#include "textflag.h"

// Per-lane right shifts that bring code i of a group of eight to bit 0 of
// dword i, for 4-bit codes (one dword holds the group) and 2-bit codes (one
// word does).
DATA shift4<>+0(SB)/4, $0
DATA shift4<>+4(SB)/4, $4
DATA shift4<>+8(SB)/4, $8
DATA shift4<>+12(SB)/4, $12
DATA shift4<>+16(SB)/4, $16
DATA shift4<>+20(SB)/4, $20
DATA shift4<>+24(SB)/4, $24
DATA shift4<>+28(SB)/4, $28
GLOBL shift4<>(SB), RODATA|NOPTR, $32
DATA shift2<>+0(SB)/4, $0
DATA shift2<>+4(SB)/4, $2
DATA shift2<>+8(SB)/4, $4
DATA shift2<>+12(SB)/4, $6
DATA shift2<>+16(SB)/4, $8
DATA shift2<>+20(SB)/4, $10
DATA shift2<>+24(SB)/4, $12
DATA shift2<>+28(SB)/4, $14
GLOBL shift2<>(SB), RODATA|NOPTR, $32
DATA low4<>+0(SB)/4, $15
GLOBL low4<>(SB), RODATA|NOPTR, $4
DATA low2<>+0(SB)/4, $3
GLOBL low2<>(SB), RODATA|NOPTR, $4

// UNPACK8/4/2 load one group's bytes — 8, 4 or 2 of them, never more, so the
// last group reads nothing past src — and leave its eight codes as dwords in
// Y4, element i in lane i (LSB-first, as pack wrote them). The narrow widths
// broadcast the group to every lane and shift lane i down by i·b bits.
#define UNPACK8 \
	VPMOVZXBD (SI), Y4 \
	ADDQ      $8, SI

#define UNPACK4 \
	VPBROADCASTD (SI), Y4   \
	VPSRLVD      Y2, Y4, Y4 \
	VPAND        Y3, Y4, Y4 \
	ADDQ         $4, SI

#define UNPACK2 \
	VPBROADCASTW (SI), Y4   \
	VPSRLVD      Y2, Y4, Y4 \
	VPAND        Y3, Y4, Y4 \
	ADDQ         $2, SI

// STORE and ACCUM finish a group: float32(code)*scale + zero with the
// multiply and the add apart, as the Go loop rounds twice, then out = that
// or out += that.
#define AFFINE \
	VCVTDQ2PS Y4, Y4     \
	VMULPS    Y0, Y4, Y4 \
	VADDPS    Y1, Y4, Y4

#define STORE \
	AFFINE           \
	VMOVUPS Y4, (DI) \
	ADDQ    $32, DI

#define ACCUM \
	AFFINE              \
	VADDPS  (DI), Y4, Y4 \
	VMOVUPS Y4, (DI)    \
	ADDQ    $32, DI

#define LOOP(name, unpack, finish) \
name:         \
	unpack    \
	finish    \
	SUBQ $8, CX \
	JNZ  name \
	VZEROUPPER \
	RET

// func dequantizeAVX2(out []float32, src []byte, scale, zero float32, b int, add bool)
TEXT ·dequantizeAVX2(SB), NOSPLIT, $0-65
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSS scale+48(FP), Y0
	VBROADCASTSS zero+52(FP), Y1
	MOVQ         b+56(FP), BX
	MOVBLZX      add+64(FP), AX
	CMPQ         BX, $4
	JEQ          four
	JLT          two
	TESTL        AX, AX
	JNZ          add8
	LOOP(store8, UNPACK8, STORE)
	LOOP(add8, UNPACK8, ACCUM)

four:
	VMOVDQU      shift4<>(SB), Y2
	VPBROADCASTD low4<>(SB), Y3
	TESTL        AX, AX
	JNZ          add4
	LOOP(store4, UNPACK4, STORE)
	LOOP(add4, UNPACK4, ACCUM)

two:
	VMOVDQU      shift2<>(SB), Y2
	VPBROADCASTD low2<>(SB), Y3
	TESTL        AX, AX
	JNZ          add2
	LOOP(store2, UNPACK2, STORE)
	LOOP(add2, UNPACK2, ACCUM)

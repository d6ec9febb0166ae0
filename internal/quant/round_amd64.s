//go:build !noasm

#include "textflag.h"

DATA two24<>+0(SB)/4, $0x4B800000 // 2^24
GLOBL two24<>(SB), RODATA|NOPTR, $4
DATA inv24<>+0(SB)/4, $0x33800000 // 2^-24
GLOBL inv24<>(SB), RODATA|NOPTR, $4

// func roundMaskAVX2(h []float32, mn, inv float32) (draw uint64, ok bool)
//
// Groups of 8 are taken from the end of h so that each group's mask byte
// shifts in below the ones already gathered.
TEXT ·roundMaskAVX2(SB), NOSPLIT, $0-41
	MOVQ         h_base+0(FP), SI
	MOVQ         h_len+8(FP), CX
	VBROADCASTSS mn+24(FP), Y0
	VBROADCASTSS inv+28(FP), Y1
	VBROADCASTSS two24<>(SB), Y2
	VXORPS       Y3, Y3, Y3       // 0
	VPCMPEQD     Y7, Y7, Y7       // lanes still in range: all of them
	XORQ         AX, AX
	LEAQ         (SI)(CX*4), SI

loop:
	SUBQ      $32, SI
	VMOVUPS   (SI), Y4
	VSUBPS    Y0, Y4, Y4
	VMULPS    Y1, Y4, Y4          // t
	VCMPPS    $0x16, Y3, Y4, Y5   // !(t <= 0), true for NaN
	VMOVMSKPS Y5, BX
	SHLQ      $8, AX
	ORQ       BX, AX
	VCMPPS    $0x1D, Y3, Y4, Y5   // t >= 0, false for NaN
	VCMPPS    $0x11, Y2, Y4, Y6   // t < 2^24
	VPAND     Y5, Y7, Y7
	VPAND     Y6, Y7, Y7
	SUBQ      $8, CX
	JNZ       loop

	VMOVMSKPS Y7, BX
	CMPL      BX, $0xFF
	SETEQ     ok+40(FP)
	MOVQ      AX, draw+32(FP)
	VZEROUPPER
	RET

// func roundFinishAVX2(codes []uint8, h []float32, draws *[64]uint32, mn, inv float32, maxCode uint32)
TEXT ·roundFinishAVX2(SB), NOSPLIT, $0-68
	MOVQ         codes_base+0(FP), DI
	MOVQ         h_base+24(FP), SI
	MOVQ         h_len+32(FP), CX
	MOVQ         draws+48(FP), DX
	VBROADCASTSS mn+56(FP), Y0
	VBROADCASTSS inv+60(FP), Y1
	VBROADCASTSS maxCode+64(FP), Y2  // 4 bytes; vet misreads VPBROADCASTD's size
	VBROADCASTSS inv24<>(SB), Y3

loop:
	VMOVUPS      (SI), Y4
	VSUBPS       Y0, Y4, Y4
	VMULPS       Y1, Y4, Y4        // t, in [0, 2^24)
	VCVTTPS2DQ   Y4, Y5            // c = ⌊t⌋
	VCVTDQ2PS    Y5, Y6
	VSUBPS       Y6, Y4, Y4        // t - float32(c)
	VCVTDQ2PS    (DX), Y6
	VMULPS       Y3, Y6, Y6        // u = draw / 2^24, exact
	VCMPPS       $0x11, Y4, Y6, Y6 // u < fraction: all ones, i.e. -1
	VPSUBD       Y6, Y5, Y5        // c + 1 where it holds
	VPMINUD      Y2, Y5, Y5
	VEXTRACTI128 $1, Y5, X6
	VPACKUSDW    X6, X5, X5        // 8 dwords -> 8 words, in lane order
	VPACKUSWB    X5, X5, X5        // -> 8 bytes
	VMOVQ        X5, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DX
	ADDQ         $8, DI
	SUBQ         $8, CX
	JNZ          loop

	VZEROUPPER
	RET

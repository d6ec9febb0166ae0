//go:build !noasm

#include "textflag.h"

DATA two24<>+0(SB)/4, $0x4B800000 // 2^24
GLOBL two24<>(SB), RODATA|NOPTR, $4
DATA inv24<>+0(SB)/4, $0x33800000 // 2^-24
GLOBL inv24<>(SB), RODATA|NOPTR, $4

// The greatest code of each width, and the multipliers that pack adjacent
// codes: bytes (1, 4) and (1, 16), words (1, 16).
DATA mask2<>+0(SB)/4, $3
GLOBL mask2<>(SB), RODATA|NOPTR, $4
DATA mask4<>+0(SB)/4, $15
GLOBL mask4<>(SB), RODATA|NOPTR, $4
DATA mask8<>+0(SB)/4, $255
GLOBL mask8<>(SB), RODATA|NOPTR, $4
DATA mul2<>+0(SB)/2, $0x0401
GLOBL mul2<>(SB), RODATA|NOPTR, $2
DATA mul4<>+0(SB)/2, $0x1001
GLOBL mul4<>(SB), RODATA|NOPTR, $2
DATA mul4w<>+0(SB)/4, $0x00100001
GLOBL mul4w<>(SB), RODATA|NOPTR, $4

// func roundMaskAVX2(t *[64]float32, h []float32, mn, inv float32) (draw uint64, ok bool)
//
// Groups of 8 are taken from the end of h so that each group's mask byte
// shifts in below the ones already gathered.
TEXT ·roundMaskAVX2(SB), NOSPLIT, $0-49
	MOVQ         t+0(FP), DI
	MOVQ         h_base+8(FP), SI
	MOVQ         h_len+16(FP), CX
	VBROADCASTSS mn+32(FP), Y0
	VBROADCASTSS inv+36(FP), Y1
	VBROADCASTSS two24<>(SB), Y2
	VXORPS       Y3, Y3, Y3       // 0
	VPCMPEQD     Y7, Y7, Y7       // lanes still in range: all of them
	XORQ         AX, AX
	LEAQ         (SI)(CX*4), SI
	LEAQ         (DI)(CX*4), DI

loop:
	SUBQ      $32, SI
	SUBQ      $32, DI
	VMOVUPS   (SI), Y4
	VSUBPS    Y0, Y4, Y4
	VMULPS    Y1, Y4, Y4          // t
	VMOVUPS   Y4, (DI)
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
	SETEQ     ok+48(FP)
	MOVQ      AX, draw+40(FP)
	VZEROUPPER
	RET

// CODES rounds the next eight elements. With t in [0, 2^24) loaded, c = ⌊t⌋
// by truncation; u = draw/2^24 is exact; u < t-float32(c) is all ones, -1,
// where it holds, and subtracting it adds the one; Y5 = min(that, maxCode).
// The two packs then narrow 8 dwords to 8 words to 8 bytes in lane order:
// X5's low eight bytes are the codes, one per byte.
#define CODES \
	VMOVUPS      (SI), Y4          \
	VCVTTPS2DQ   Y4, Y5            \
	VCVTDQ2PS    Y5, Y6            \
	VSUBPS       Y6, Y4, Y4        \
	VCVTDQ2PS    (DX), Y6          \
	VMULPS       Y3, Y6, Y6        \
	VCMPPS       $0x11, Y4, Y6, Y6 \
	VPSUBD       Y6, Y5, Y5        \
	VPMINUD      Y2, Y5, Y5        \
	VEXTRACTI128 $1, Y5, X6        \
	VPACKUSDW    X6, X5, X5        \
	VPACKUSWB    X5, X5, X5        \
	ADDQ         $32, SI           \
	ADDQ         $32, DX

// func roundFinishAVX2(dst []byte, t *[64]float32, draws *[64]uint32, b int)
//
// Each group of eight codes leaves as b bytes, packed LSB-first as pack
// packs them. A multiply-add of adjacent lanes is the shift-and-or: byte
// pairs by (1, 2^b) make four words, and for two bits word pairs by (1, 16)
// make two dwords; no sum passes 255.
TEXT ·roundFinishAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         t+24(FP), SI
	MOVQ         draws+32(FP), DX
	MOVQ         b+40(FP), BX
	VBROADCASTSS inv24<>(SB), Y3
	CMPQ         BX, $4
	JEQ          four
	JLT          two
	VPBROADCASTD mask8<>(SB), Y2

loop8:
	CODES
	VMOVQ X5, (DI)
	ADDQ  $8, DI
	SUBQ  $8, CX
	JNZ   loop8
	VZEROUPPER
	RET

four:
	VPBROADCASTD mask4<>(SB), Y2
	VPBROADCASTW mul4<>(SB), X7

loop4:
	CODES
	VPMADDUBSW X7, X5, X5 // c0 + 16·c1, ...
	VPACKUSWB  X5, X5, X5
	VMOVD      X5, (DI)
	ADDQ       $4, DI
	SUBQ       $4, CX
	JNZ        loop4
	VZEROUPPER
	RET

two:
	VPBROADCASTD mask2<>(SB), Y2
	VPBROADCASTW mul2<>(SB), X7
	VPBROADCASTD mul4w<>(SB), X8

loop2:
	CODES
	VPMADDUBSW X7, X5, X5    // c0 + 4·c1, ...
	VPMADDWD   X8, X5, X5    // (c0 + 4·c1) + 16·(c2 + 4·c3), ...
	VPACKUSDW  X5, X5, X5
	VPACKUSWB  X5, X5, X5
	VPEXTRW    $0, X5, (DI)
	ADDQ       $2, DI
	SUBQ       $2, CX
	JNZ        loop2
	VZEROUPPER
	RET

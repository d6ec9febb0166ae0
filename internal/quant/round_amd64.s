//go:build !noasm

#include "textflag.h"

DATA inv24<>+0(SB)/4, $0x33800000 // 2^-24
GLOBL inv24<>(SB), RODATA|NOPTR, $4
DATA below24<>+0(SB)/4, $0x4B7FFFFF // the greatest float32 below 2^24
GLOBL below24<>(SB), RODATA|NOPTR, $4

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

// Where draw i of eight sits once DRAWS has blended them: 0–3 in the even
// dwords, 4–7 in the odd ones.
DATA unweave<>+0(SB)/4, $0
DATA unweave<>+4(SB)/4, $2
DATA unweave<>+8(SB)/4, $4
DATA unweave<>+12(SB)/4, $6
DATA unweave<>+16(SB)/4, $1
DATA unweave<>+20(SB)/4, $3
DATA unweave<>+24(SB)/4, $5
DATA unweave<>+28(SB)/4, $7
GLOBL unweave<>(SB), RODATA|NOPTR, $32

// T loads the next eight elements at SI and leaves t = (h-mn)*inv in Y4.
#define T \
	VMOVUPS (SI), Y4   \
	VSUBPS  Y0, Y4, Y4 \
	VMULPS  Y1, Y4, Y4

// STEP is one xoshiro256** step of the state in R8–R11 (s0–s3): s1, from
// which tensor.RNG.Float32 scrambles its draw, is stored at off(DI), and the
// state advances. BX is scratch.
#define STEP(off) \
	MOVQ R9, off(DI) \
	MOVQ R9, BX      \
	SHLQ $17, BX     \
	XORQ R8, R10     \
	XORQ R9, R11     \
	XORQ R10, R9     \
	XORQ R11, R8     \
	XORQ BX, R10     \
	ROLQ $45, R11

// SCRAMBLE turns the four states s1 in Y into rotl(s1·5, 7)·9, the 64 bits
// whose top 24 are tensor.RNG.Float32's draw; X is scratch.
#define SCRAMBLE(Y, X) \
	VPSLLQ $2, Y, X  \
	VPADDQ X, Y, Y   \
	VPSLLQ $7, Y, X  \
	VPSRLQ $57, Y, Y \
	VPOR   X, Y, Y   \
	VPSLLQ $3, Y, X  \
	VPADDQ X, Y, Y

// DRAWS turns the eight states at R13 into their draws in Y6, draws 0–3 in
// the even dwords and 4–7 in the odd ones.
#define DRAWS \
	VMOVDQU  (R13), Y6          \
	VMOVDQU  32(R13), Y10       \
	SCRAMBLE(Y6, Y9)            \
	SCRAMBLE(Y10, Y9)           \
	VPSRLQ   $40, Y6, Y6        \
	VPSRLQ   $8, Y10, Y10       \
	VPBLENDD $0xAA, Y10, Y6, Y6

// CODES rounds the next eight elements, with the draw of each lane in Y6's
// lane. t is recomputed; c = ⌊t⌋ by truncation, t being in [0, 2^24);
// u = draw/2^24 is exact; u < t-float32(c) is all ones, -1, where it holds,
// and subtracting it adds the one. A lane that does not draw has t = ±0 and
// some draw, never below its fraction ±0. Y5 = min(code, maxCode), and the
// two packs narrow 8 dwords to 8 words to 8 bytes in lane order: X5's low
// eight bytes are the codes.
#define CODES \
	T                              \
	VCVTTPS2DQ   Y4, Y5            \
	VCVTDQ2PS    Y5, Y8            \
	VSUBPS       Y8, Y4, Y4        \
	VCVTDQ2PS    Y6, Y6            \
	VMULPS       Y3, Y6, Y6        \
	VCMPPS       $0x11, Y4, Y6, Y6 \
	VPSUBD       Y6, Y5, Y5        \
	VPMINUD      Y2, Y5, Y5        \
	VEXTRACTI128 $1, Y5, X6        \
	VPACKUSDW    X6, X5, X5        \
	VPACKUSWB    X5, X5, X5        \
	ADDQ         $32, SI

// EVERY gives every lane of the next group its draw when all of them draw:
// the next eight states, unwoven.
#define EVERY \
	DRAWS                 \
	VPERMD Y6, Y11, Y6    \
	ADDQ   $64, R13

// SOME gives each lane of the next group that draws its draw when some do
// not: R12's low byte is the group's mask, R13 its first draw, and expand's
// row for the mask sends the group's k draws to their lanes in order.
#define SOME \
	MOVBLZX   R12B, AX         \
	VPMOVZXBD (DX)(AX*8), Y6   \
	VPERMD    (R13), Y6, Y6    \
	POPCNTL   AX, AX           \
	LEAQ      (R13)(AX*4), R13 \
	SHRQ      $8, R12

// PACK8, PACK4 and PACK2 store the eight codes in X5 at DI as b bytes,
// LSB-first as pack packs them: a multiply-add of adjacent lanes is the
// shift-and-or, byte pairs by (1, 2^b) making four words, and for two bits
// word pairs by (1, 16) making two dwords; no sum passes 255.
#define PACK8 \
	VMOVQ X5, (DI) \
	ADDQ  $8, DI

#define PACK4 \
	VPMADDUBSW X7, X5, X5 \
	VPACKUSWB  X5, X5, X5 \
	VMOVD      X5, (DI)   \
	ADDQ       $4, DI

#define PACK2 \
	VPMADDUBSW X7, X5, X5 \
	VPMADDWD   X12, X5, X5 \
	VPACKUSDW  X5, X5, X5 \
	VPACKUSWB  X5, X5, X5 \
	VPEXTRW    $0, X5, (DI) \
	ADDQ       $2, DI

// func roundAVX2(dst []byte, h []float32, mn, inv float32, b int, s *[4]uint64, draws *[codeChunk]uint64) (ok bool)
//
// First every t and the 64-bit draw mask (bit i for h[i], taken from the
// end so that each group's byte shifts in below those gathered), and the
// greatest bit pattern of t+0: every t is in [0, 2^24) — -0 too, which the
// +0 turns into +0 — if and only if that is at most below24's. If not, it
// returns false having drawn nothing. Then the generator steps once per set
// bit, storing each state s1 at draws. Then each group of eight is rounded
// and packed: when every element draws, the group's draws are the next
// eight states' (EVERY); otherwise the states were first turned into dense
// draws, in place — the eight draws of states 8j to 8j+7 overwrite states
// 4j to 4j+3, read already — and are spread from there (SOME).
TEXT ·roundAVX2(SB), NOSPLIT, $0-81
	MOVQ         h_base+24(FP), SI
	MOVQ         h_len+32(FP), CX
	VBROADCASTSS mn+48(FP), Y0
	VBROADCASTSS inv+52(FP), Y1
	VXORPS       Y3, Y3, Y3
	VPXOR        Y7, Y7, Y7
	XORQ         R12, R12
	LEAQ         (SI)(CX*4), SI

mask:
	SUBQ      $32, SI
	T
	VCMPPS    $0x16, Y3, Y4, Y5 // !(t <= 0), true for NaN
	VMOVMSKPS Y5, AX
	SHLQ      $8, R12
	ORQ       AX, R12
	VADDPS    Y3, Y4, Y4
	VPMAXUD   Y4, Y7, Y7
	SUBQ      $8, CX
	JNZ       mask

	VPBROADCASTD below24<>(SB), Y2
	VPMINUD      Y2, Y7, Y5
	VPCMPEQD     Y5, Y7, Y5
	VMOVMSKPS    Y5, AX
	CMPL         AX, $0xFF
	JEQ          draw
	MOVB         $0, ok+80(FP)
	VZEROUPPER
	RET

draw:
	MOVQ    s+64(FP), DX
	MOVQ    0(DX), R8
	MOVQ    8(DX), R9
	MOVQ    16(DX), R10
	MOVQ    24(DX), R11
	MOVQ    draws+72(FP), R13
	MOVQ    R13, DI
	POPCNTQ R12, CX
	JZ      stored

single:
	TESTQ $3, CX
	JZ    quads
	STEP(0)
	ADDQ  $8, DI
	SUBQ  $1, CX
	JNZ   single
	JMP   stored

quads:
	STEP(0)
	STEP(8)
	STEP(16)
	STEP(24)
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  quads

stored:
	MOVQ R8, 0(DX)
	MOVQ R9, 8(DX)
	MOVQ R10, 16(DX)
	MOVQ R11, 24(DX)

	MOVQ         dst_base+0(FP), DI
	MOVQ         h_len+32(FP), CX
	MOVQ         b+56(FP), BX
	VBROADCASTSS inv24<>(SB), Y3
	VPBROADCASTW mul4<>(SB), X7
	VPBROADCASTD mask4<>(SB), Y2
	CMPQ         BX, $4
	JEQ          width
	VPBROADCASTD mask8<>(SB), Y2
	JGT          width
	VPBROADCASTW mul2<>(SB), X7
	VPBROADCASTD mul4w<>(SB), X12
	VPBROADCASTD mask2<>(SB), Y2

width:
	MOVB    $1, ok+80(FP)
	POPCNTQ R12, AX
	CMPQ    AX, CX
	JNE     sparse
	VMOVDQU unweave<>(SB), Y11
	CMPQ    BX, $4
	JEQ     every4
	JLT     every2

every8:
	EVERY
	CODES
	PACK8
	SUBQ $8, CX
	JNZ  every8
	VZEROUPPER
	RET

every4:
	EVERY
	CODES
	PACK4
	SUBQ $8, CX
	JNZ  every4
	VZEROUPPER
	RET

every2:
	EVERY
	CODES
	PACK2
	SUBQ $8, CX
	JNZ  every2
	VZEROUPPER
	RET

sparse:
	// The AX states from R13 on, and one more, become dense draws, eight at
	// a time: a group that draws nothing reads the draw after the last.
	MOVQ    R13, R8
	MOVQ    R13, R9
	VMOVDQU unweave<>(SB), Y11
	INCQ    AX

weave:
	DRAWS
	VPERMD  Y6, Y11, Y6
	VMOVDQU Y6, (R9)
	ADDQ    $64, R13
	ADDQ    $32, R9
	SUBQ    $8, AX
	JG      weave

	MOVQ R8, R13
	LEAQ ·expand(SB), DX
	CMPQ BX, $4
	JEQ  some4
	JLT  some2

some8:
	SOME
	CODES
	PACK8
	SUBQ $8, CX
	JNZ  some8
	VZEROUPPER
	RET

some4:
	SOME
	CODES
	PACK4
	SUBQ $8, CX
	JNZ  some4
	VZEROUPPER
	RET

some2:
	SOME
	CODES
	PACK2
	SUBQ $8, CX
	JNZ  some2
	VZEROUPPER
	RET

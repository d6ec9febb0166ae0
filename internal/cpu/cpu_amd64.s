//go:build !noasm

#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7                  // highest basic leaf
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX         // OSXSAVE | AVX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX                  // XCR0: the OS saves XMM and YMM state
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x20, BX               // AVX2
	JZ    no
	MOVB  $1, ret+0(FP)
no:
	RET

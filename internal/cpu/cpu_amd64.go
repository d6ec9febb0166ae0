//go:build !noasm

package cpu

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state
// (CPUID leaves 1 and 7, XGETBV).
func hasAVX2() bool

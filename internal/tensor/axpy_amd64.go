package tensor

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state
// (CPUID leaves 1 and 7, XGETBV).
func hasAVX2() bool

// axpyAVX2 is Axpy for len(src) >= len(dst) >= 8 on a host where hasAVX2 is
// true: 8 lanes of VMULPS then VADDPS — unfused, like the Go loop — and a
// VMULSS/VADDSS tail.
//
//go:noescape
func axpyAVX2(dst, src []float32, alpha float32)

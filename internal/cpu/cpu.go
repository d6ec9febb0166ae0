// Package cpu probes the host once for the vector extension the assembly
// kernels of internal/tensor and internal/quant need, and is the one place
// that decides whether a loop takes its vector path.
package cpu

// AVX2 is whether the CPU has AVX2 and the OS saves the YMM state; always
// false off amd64 and under the noasm build tag. It is decided once, at
// init. Tests clear it to run the portable Go loops on the same host, and
// nothing else writes it.
var AVX2 = hasAVX2()

// Vector reports whether a kernel over n float32 lanes takes its AVX2 path:
// the host has one and n fills at least one 8-lane vector. Every dispatch
// between an assembly kernel and its Go loop is this call.
func Vector(n int) bool { return AVX2 && n >= 8 }

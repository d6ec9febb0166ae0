//go:build !amd64 || noasm

package quant

// Without the assembly cpu.Vector is always false and nothing reaches these.

func roundAVX2(dst []byte, h []float32, mn, inv float32, b int, s *[4]uint64, draws *[codeChunk]uint64) (ok bool) {
	panic("quant: no AVX2 kernels in this build")
}

func dequantizeAVX2(out []float32, src []byte, scale, zero float32, b int, add bool) {
	panic("quant: no AVX2 kernels in this build")
}

//go:build !amd64 || noasm

package quant

// Without the assembly cpu.Vector is always false and nothing reaches these.

func roundMaskAVX2(t *[codeChunk]float32, h []float32, mn, inv float32) (draw uint64, ok bool) {
	panic("quant: no AVX2 kernels in this build")
}

func roundFinishAVX2(dst []byte, t *[codeChunk]float32, draws *[codeChunk]uint32, b int) {
	panic("quant: no AVX2 kernels in this build")
}

func dequantizeAVX2(out []float32, src []byte, scale, zero float32, b int, add bool) {
	panic("quant: no AVX2 kernels in this build")
}

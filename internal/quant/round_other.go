//go:build !amd64 || noasm

package quant

// Without the assembly cpu.Vector is always false and nothing reaches these.

func roundMaskAVX2(h []float32, mn, inv float32) (draw uint64, ok bool) {
	panic("quant: no AVX2 kernels in this build")
}

func roundFinishAVX2(codes []uint8, h []float32, draws *[codeChunk]uint32, mn, inv float32, maxCode uint32) {
	panic("quant: no AVX2 kernels in this build")
}

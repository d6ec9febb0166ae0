//go:build !amd64

package quant

func hasAVX2() bool { return false }

func roundMaskAVX2(h []float32, mn, inv float32) (draw uint64, ok bool) {
	panic("quant: no AVX2 kernel on this architecture")
}

func roundFinishAVX2(codes []uint8, h []float32, draws *[codeChunk]uint32, mn, inv float32, maxCode uint32) {
	panic("quant: no AVX2 kernel on this architecture")
}

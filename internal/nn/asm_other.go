//go:build !amd64 || noasm

package nn

// Without the assembly cpu.Vector is always false and nothing reaches these.

func normalizeAVX2(xh, out, x, g, b []float32, mean, inv float32) {
	panic("nn: no AVX2 kernels in this build")
}

func paramGradsAVX2(gg, gb, dy, xh []float32) {
	panic("nn: no AVX2 kernels in this build")
}

func inputGradAVX2(dx, dy, g, xh []float32, inv, invD, a, s2 float32) {
	panic("nn: no AVX2 kernels in this build")
}

func reluForwardAVX2(out []float32, mask []uint32, x []float32) {
	panic("nn: no AVX2 kernels in this build")
}

func reluBackwardAVX2(out, dy []float32, mask []uint32) {
	panic("nn: no AVX2 kernels in this build")
}

func dropoutForwardAVX2(out, mask, x []float32, draws []uint32, keep, scale float32) {
	panic("nn: no AVX2 kernels in this build")
}

func dropoutBackwardAVX2(out, dy, mask []float32) {
	panic("nn: no AVX2 kernels in this build")
}

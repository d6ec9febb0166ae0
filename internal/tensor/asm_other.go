//go:build !amd64 || noasm

package tensor

// Without the assembly cpu.Vector is always false and nothing reaches these.

func axpyAVX2(dst, src []float32, alpha float32) {
	panic("tensor: no AVX2 kernels in this build")
}

func dotColsAVX2(out, a, bt []float32) {
	panic("tensor: no AVX2 kernels in this build")
}

func accumAVX2(dst *float32, rows, n int, a *float32, aRowStride, aKStride int, b *float32, k int, load bool) {
	panic("tensor: no AVX2 kernels in this build")
}

func minMaxAVX2(v []float32) (mn, mx float32) {
	panic("tensor: no AVX2 kernels in this build")
}

//go:build !amd64

package tensor

func hasAVX2() bool { return false }

func axpyAVX2(dst, src []float32, alpha float32) {
	panic("tensor: no AVX2 kernel on this architecture")
}

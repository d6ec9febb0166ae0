//go:build !amd64

package tensor

func dotColsAVX2(out, a, bt []float32) {
	panic("tensor: no AVX2 kernel on this architecture")
}

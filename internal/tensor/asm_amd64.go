//go:build !noasm

package tensor

// The AVX2 kernels. Each runs only where cpu.Vector said so, keeps multiply
// and add apart like the Go loop it stands in for, and is held to that loop
// as float32 bits by the tests.

// axpyAVX2 is Axpy for len(src) >= len(dst) >= 8: 8 lanes of VMULPS then
// VADDPS and a VMULSS/VADDSS tail.
//
//go:noescape
func axpyAVX2(dst, src []float32, alpha float32)

// dotColsAVX2 computes out[j] = dot(a, column j of bt) for every j, where bt
// is len(a) rows of len(out) floats and len(out) is a positive multiple of 8.
// Eight columns share a vector; within a lane the operations are dot's, in
// dot's order: the four products of a group of four k added left to right,
// that sum added to the accumulator, then the leftover k one at a time.
//
//go:noescape
func dotColsAVX2(out, a, bt []float32)

// accumAVX2 adds k scaled rows of b into each of the rows rows of dst, both
// row-major and n wide, keeping the sums in registers across all k:
//
//	dst[r][j] = ((init + α(r,0)·b[0][j]) + α(r,1)·b[1][j]) + …
//
// with α(r,kk) = a[r*aRowStride + kk*aKStride] and init the value dst[r][j]
// holds when load is set and +0 otherwise. Every term is added, a ±0 α's
// too. Per element that is the chain of Axpy calls it replaces, which skips
// those, wherever no skipped term would have been 0·±Inf or 0·NaN — what
// matMulRange and tMatMulRange make sure of. rows, n >= 1; k >= 0; strides
// in elements.
//
//go:noescape
func accumAVX2(dst *float32, rows, n int, a *float32, aRowStride, aKStride int, b *float32, k int, load bool)

// minMaxAVX2 returns the least and the greatest element of v, len(v) >= 8,
// as minMaxGo does — NaN only if v[0] is NaN, later NaNs skipped — except
// that a result equal to zero may carry either zero's sign.
//
//go:noescape
func minMaxAVX2(v []float32) (mn, mx float32)

package tensor

import (
	"fmt"
	"testing"
)

// BenchmarkDenseKernels times the three dense products on the shapes the
// benchmark's workloads give one device (rows × inner × width; products-sim
// at hidden 64 with 47 classes, reddit-sim's 602 features at hidden 16 with
// 41 classes) and reports GFLOP/s, counting a multiply and an add per term.
// The two products that read the activations x run twice: on a dense x, and
// on a ReLU-sparse one, 3/8 of it +0 at random positions, as layers past the
// first see it after ReLU, dropout and aggregation. Alternate binaries of
// the two commits to compare them:
//
//	go test -c -o tensor.test ./internal/tensor
//	./tensor.test -test.run '^$' -test.bench DenseKernels -test.benchtime 200x -test.cpu 1,2
func BenchmarkDenseKernels(b *testing.B) {
	shapes := [][3]int{{6000, 100, 64}, {6000, 64, 64}, {6000, 64, 47}, {1000, 602, 16}, {1000, 16, 16}, {1000, 16, 41}}
	rng := NewRNG(1)
	for _, sh := range shapes {
		rows, k, n := sh[0], sh[1], sh[2]
		x, relu, w, dy := New(rows, k), New(rows, k), New(k, n), New(rows, n)
		x.FillUniform(rng, -1, 1)
		relu.FillUniform(rng, -0.6, 1)
		for i, v := range relu.Data {
			relu.Data[i] = max(v, 0)
		}
		w.FillUniform(rng, -1, 1)
		dy.FillUniform(rng, -1, 1)
		y, dw, dx := New(rows, n), New(k, n), New(rows, k)
		run := func(name string, fn func()) {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", name, rows, k, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(2*float64(rows)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
		run("MatMul", func() { MatMulInto(y, x, w) })
		run("MatMul-relu", func() { MatMulInto(y, relu, w) })
		run("TMatMul", func() { TMatMulInto(dw, x, dy) })
		run("TMatMul-relu", func() { TMatMulInto(dw, relu, dy) })
		run("MatMulT", func() { MatMulTInto(dx, dy, w) })
	}
}

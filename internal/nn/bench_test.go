package nn

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// BenchmarkNormStage times the stage every hidden layer ends in — LayerNorm,
// ReLU, Dropout forward, and their backward in reverse — at products-sim's
// hidden width (64) and reddit-sim's (16), 2000 rows. It uses only the
// exported API, so the same file times an older commit. Compare commits with
// one binary each, alternated, at -test.cpu 1.
func BenchmarkNormStage(b *testing.B) {
	for _, d := range []int{64, 16} {
		const rows = 2000
		rng := tensor.NewRNG(7)
		ln, relu, drop := NewLayerNorm("b", d), &ReLU{}, &Dropout{P: 0.5}
		ln.Gamma.Value.FillUniform(rng, 0.5, 1.5)
		ln.Beta.Value.FillUniform(rng, -0.5, 0.5)
		x, dy := tensor.New(rows, d), tensor.New(rows, d)
		x.FillNormal(rng, 0, 1)
		dy.FillNormal(rng, 0, 0.01)
		forward := func() { drop.Forward(relu.Forward(ln.Forward(x)), rng, true) }
		forward()
		b.Run(fmt.Sprintf("forward/%dx%d", rows, d), func(b *testing.B) {
			for b.Loop() {
				forward()
			}
		})
		b.Run(fmt.Sprintf("backward/%dx%d", rows, d), func(b *testing.B) {
			for b.Loop() {
				ln.Backward(relu.Backward(drop.Backward(dy)))
			}
		})
	}
}

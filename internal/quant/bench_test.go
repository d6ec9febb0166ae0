package quant

import (
	"testing"

	"repro/internal/tensor"
)

// BenchmarkAppendQuantizedMixed times the encoder as the exchange calls it:
// 602-wide rows (reddit-sim's layer-0 width) at mixed widths, their ranges
// supplied, so only rounding and packing are timed. Dense rows draw for
// every element; ReLU-sparse rows leave about half the elements at the row
// minimum, where nothing draws. Alternate binaries of the two commits to
// compare them:
//
//	go test -c -o quant.test ./internal/quant
//	./quant.test -test.run '^$' -test.bench AppendQuantizedMixed -test.benchtime 300x -test.cpu 1
func BenchmarkAppendQuantizedMixed(b *testing.B) {
	const rows, cols = 256, 602
	shapes := []struct {
		name string
		fill func(h []float32, rng *tensor.RNG)
	}{
		{"dense", func(h []float32, rng *tensor.RNG) {
			for i := range h {
				h[i] = rng.Float32()*4 - 2
			}
		}},
		{"relu-sparse", fillReLUSparse},
	}
	all := make([]int32, rows)
	for i := range all {
		all[i] = int32(i)
	}
	for _, shape := range shapes {
		x := tensor.New(rows, cols)
		shape.fill(x.Data, tensor.NewRNG(1))
		ranges := make([]RowRange, rows)
		RowRanges(ranges, x, all)
		widths := RandomWidths(rows, tensor.NewRNG(2))
		rng := tensor.NewRNG(3)
		buf := make([]byte, 0, MixedSize(widths, cols))
		b.Run(shape.name, func(b *testing.B) {
			b.SetBytes(int64(4 * rows * cols))
			for b.Loop() {
				var err error
				if buf, err = AppendQuantizedMixedRanges(buf[:0], x, all, widths, ranges, rng); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*cols), "ns/elem")
		})
	}
}

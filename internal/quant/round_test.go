package quant

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kerneltest"
	"repro/internal/tensor"
)

// TestRoundKernelsAgree drives gen.round below the row kernel, on the vector
// and the scalar rounder (kerneltest.Differential), on (h, min, 1/scale)
// triples a consistent row cannot produce but a caller-supplied RowRange can:
// t < 0, t ≥ 2^24, t past 2^32, NaN. Codes and generator end state must match
// for every chunk length and at every element offset 0–9 of sentinel-filled
// buffers, nothing outside codes[:n] may move, and h is read-only.
func TestRoundKernelsAgree(t *testing.T) {
	type params struct {
		mn, inv          float32
		maxCode, roundUp uint32
		plant            float32 // one element of every row, when not 0
	}
	cases := []params{
		{mn: -1, inv: 1.5, maxCode: 3, roundUp: 1},
		{mn: -1, inv: 127.5, maxCode: 255, roundUp: 1},
		{mn: 0.25, inv: 7.5, maxCode: 15, roundUp: 1},             // some t < 0
		{mn: -1, inv: 1 << 23, maxCode: 255, roundUp: 1},          // some t ≥ 2^24
		{mn: -1, inv: 1 << 32, maxCode: 15, roundUp: 1, plant: 2}, // t = 3·2^32: uint32(t) wraps to 0
		{mn: -1, inv: float32(math.Inf(1)), maxCode: 3},           // overflowed 1/scale
		{mn: float32(math.NaN()), inv: 1, maxCode: 3, roundUp: 1}, // every t NaN
		{mn: -1, inv: float32(math.NaN()), maxCode: 255},
	}
	fill := tensor.NewRNG(31)
	hbuf := make([]float32, codeChunk+10)
	for _, c := range cases {
		for n := 1; n <= codeChunk; n++ {
			off := n % 10
			h := hbuf[off : off+n]
			for i := range h {
				h[i] = fill.Float32()*2 - 1
			}
			if n%3 == 0 {
				h[n/2] = c.mn // draws nothing
			}
			if n%7 == 0 {
				h[n-1] = float32(math.NaN())
			}
			if c.plant != 0 {
				h[n/3] = c.plant
			}
			var ends []gen
			kerneltest.Differential(t, fmt.Sprintf("round %+v len %d", c, n), make([]uint8, n), off, func(codes []uint8) {
				g := gen{1, 2, 3, uint64(n)}
				g.round(codes, h, c.mn, c.inv, c.maxCode, c.roundUp)
				ends = append(ends, g)
			}, hbuf)
			if ends[0] != ends[1] {
				t.Fatalf("%+v len %d: generator state differs between the kernels", c, n)
			}
		}
	}
}

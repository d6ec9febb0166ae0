package quant

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestRoundKernelsAgree drives gen.round below the row kernel, with the
// vector rounder on and off, on (h, min, 1/scale) triples a consistent row
// cannot produce but a caller-supplied RowRange can: t < 0, t ≥ 2^24, t past
// 2^32, NaN. Codes and generator end state must match for every chunk
// length and at every element offset 0–9 of sentinel-filled buffers, and
// nothing outside codes[:n] may move.
func TestRoundKernelsAgree(t *testing.T) {
	if !useVector {
		t.Skip("no AVX2 on this host: round is the scalar kernel")
	}
	defer func() { useVector = true }()

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
			want := make([]uint8, n)
			ref := gen{1, 2, 3, uint64(n)}
			useVector = false
			ref.round(want, h, c.mn, c.inv, c.maxCode, c.roundUp)

			cbuf := make([]uint8, codeChunk+20)
			for i := range cbuf {
				cbuf[i] = 0xC3
			}
			before := append([]float32(nil), hbuf...)
			g := gen{1, 2, 3, uint64(n)}
			useVector = true
			g.round(cbuf[off:off+n], h, c.mn, c.inv, c.maxCode, c.roundUp)

			if g != ref {
				t.Fatalf("%+v len %d: generator state differs between the kernels", c, n)
			}
			for i, v := range cbuf {
				switch inside := i >= off && i < off+n; {
				case inside && v != want[i-off]:
					t.Fatalf("%+v len %d: code[%d] = %d, scalar kernel %d", c, n, i-off, v, want[i-off])
				case !inside && v != 0xC3:
					t.Fatalf("%+v len %d off %d: byte %d outside codes was written", c, n, off, i)
				}
			}
			for i := range hbuf {
				if math.Float32bits(hbuf[i]) != math.Float32bits(before[i]) {
					t.Fatalf("%+v len %d: h[%d] was written", c, n, i-off)
				}
			}
		}
	}
}

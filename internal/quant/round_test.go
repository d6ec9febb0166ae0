package quant

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kerneltest"
	"repro/internal/tensor"
)

// TestRoundKernelsAgree drives gen.round below the row kernel, on the vector
// rounder-and-packer and on roundScalar + pack (kerneltest.Differential), on
// (h, min, 1/scale) triples a consistent row cannot produce but a
// caller-supplied RowRange can: t < 0, t ≥ 2^24, t past 2^32, NaN. Packed
// bytes and generator end state must match for every width, every chunk
// length 1–64 and at every byte offset 0–9 of sentinel-filled buffers,
// nothing outside the chunk's bytes may move, and h — which ends where its
// page ends — is read-only.
func TestRoundKernelsAgree(t *testing.T) {
	type params struct {
		mn, inv float32
		roundUp uint32
		plant   float32 // one element of every row, when not 0
	}
	cases := []params{
		{mn: -1, inv: 1.5, roundUp: 1},
		{mn: -1, inv: 127.5, roundUp: 1},
		{mn: -1, inv: 7.5, roundUp: 1},
		{mn: 0.25, inv: 7.5, roundUp: 1},              // some t < 0
		{mn: -1, inv: 1 << 23, roundUp: 1},            // some t ≥ 2^24
		{mn: -1, inv: 1 << 32, roundUp: 1, plant: 2},  // t = 3·2^32: uint32(t) wraps to 0
		{mn: -1, inv: float32(math.Inf(1))},           // overflowed 1/scale
		{mn: float32(math.NaN()), inv: 1, roundUp: 1}, // every t NaN
		{mn: -1, inv: float32(math.NaN())},
	}
	fill := tensor.NewRNG(31)
	hbuf := kerneltest.AtPageEnd[float32](t, codeChunk) // reading past h faults
	for _, c := range cases {
		for _, b := range Candidates {
			for n := 1; n <= codeChunk; n++ {
				off := n % 10
				h := hbuf[codeChunk-n:]
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
				var ends [][4]uint64
				kerneltest.Differential(t, fmt.Sprintf("round %+v B%d len %d", c, b, n), make([]uint8, b.PackedSize(n)), off, func(dst []uint8) {
					g := gen{s0: 1, s1: 2, s2: 3, s3: uint64(n)}
					g.round(dst, h, c.mn, c.inv, b, c.roundUp)
					ends = append(ends, [4]uint64{g.s0, g.s1, g.s2, g.s3})
				}, hbuf)
				if ends[0] != ends[1] {
					t.Fatalf("%+v B%d len %d: generator state differs between the kernels", c, b, n)
				}
			}
		}
	}
}

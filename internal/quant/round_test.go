package quant

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kerneltest"
	"repro/internal/tensor"
)

// maskShapes are the draw masks TestRoundKernelsAgree gives a chunk: each
// fills h from the row minimum mn, and the elements it leaves at mn draw
// nothing.
var maskShapes = []struct {
	name string
	fill func(h []float32, mn float32, rng *tensor.RNG)
}{
	// The table's own values: mostly drawing, one element at mn in some
	// lengths, a NaN at the end of others.
	{"mixed", func(h []float32, mn float32, rng *tensor.RNG) {
		n := len(h)
		for i := range h {
			h[i] = rng.Float32()*2 - 1
		}
		if n%3 == 0 {
			h[n/2] = mn
		}
		if n%7 == 0 {
			h[n-1] = float32(math.NaN())
		}
	}},
	{"all-draw", func(h []float32, mn float32, rng *tensor.RNG) {
		for i := range h {
			h[i] = mn + 0.01 + rng.Float32()*1.9
		}
	}},
	// Post-ReLU: at least half the elements at the minimum.
	{"relu-sparse", func(h []float32, mn float32, rng *tensor.RNG) {
		for i := range h {
			if h[i] = mn; rng.Intn(5) < 2 {
				h[i] += 0.01 + rng.Float32()
			}
		}
	}},
	{"none-draw", func(h []float32, mn float32, rng *tensor.RNG) {
		for i := range h {
			h[i] = mn
		}
	}},
	// Whole groups of eight that draw nothing beside groups that do: a
	// dark group after the chunk's last draw reads past it.
	{"dark-groups", func(h []float32, mn float32, rng *tensor.RNG) {
		for i := range h {
			if h[i] = mn; i/8%3 == 1 {
				h[i] += 0.01 + rng.Float32()
			}
		}
	}},
}

// dirtyGen is a generator at a state chosen by seed whose vector scratch
// holds junk, as another chunk or call may leave it.
func dirtyGen(seed uint64) gen {
	g := gen{s: [4]uint64{1, 2, 3, seed}}
	junk := tensor.NewRNG(seed)
	for i := range g.draws {
		g.draws[i] = junk.Uint64()
	}
	return g
}

// TestRoundKernelsAgree drives gen.round below the row kernel, on the vector
// rounder and on roundScalar + pack (kerneltest.Differential), for every
// mask shape and on (h, min, 1/scale) triples a consistent row cannot
// produce but a caller-supplied RowRange can: t < 0, t ≥ 2^24, t past 2^32,
// NaN. Packed bytes and generator end state must match for every width,
// every chunk length 1–64 (vector lengths 8–64, each with and without a
// 1–7 element tail) and at every byte offset 0–9 of sentinel-filled
// buffers, nothing outside the chunk's bytes may move, and h — which ends
// where its page ends — is read-only.
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
	check := func(what string, h []float32, c params, b BitWidth) {
		t.Helper()
		n := len(h)
		var ends [][4]uint64
		kerneltest.Differential(t, what, make([]uint8, b.PackedSize(n)), n%10, func(dst []uint8) {
			g := dirtyGen(uint64(n))
			g.round(dst, h, c.mn, c.inv, b, c.roundUp)
			ends = append(ends, g.s)
		}, hbuf)
		if ends[0] != ends[1] {
			t.Fatalf("%s: generator state differs between the kernels", what)
		}
	}
	for _, shape := range maskShapes {
		for _, c := range cases {
			for _, b := range Candidates {
				for n := 1; n <= codeChunk; n++ {
					h := hbuf[codeChunk-n:]
					shape.fill(h, c.mn, fill)
					if c.plant != 0 {
						h[n/3] = c.plant
					}
					check(fmt.Sprintf("%s %+v B%d len %d", shape.name, c, b, n), h, c, b)
				}
			}
		}
	}
	// The row minimum alone at each offset of a whole chunk, and of a chunk
	// of 56 vector elements and a 7-element tail.
	for _, n := range []int{codeChunk, 63} {
		h := hbuf[codeChunk-n:]
		for at := range n {
			for i := range h {
				h[i] = fill.Float32()*2 - 1
			}
			h[at] = -1
			for _, b := range Candidates {
				check(fmt.Sprintf("minimum at %d B%d len %d", at, b, n), h, cases[0], b)
			}
		}
	}
}

// TestRoundVectorDeclinesWithoutDrawing calls the vector rounder directly.
// A chunk with one NaN, ±Inf, negative or ≥ 2^24 t, at any position of any
// vector length, is declined with the generator state untouched; a chunk
// whose t are -0 and the greatest float32 below 2^24 is not.
func TestRoundVectorDeclinesWithoutDrawing(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no vector rounder on this host")
	}
	const mn, inv = -1, 2
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		-1.5,          // t = -1
		(1<<24)/2 - 1, // t = 2^24
	}
	fill := tensor.NewRNG(7)
	for n := 8; n <= codeChunk; n += 8 {
		h := make([]float32, n)
		for _, b := range Candidates {
			dst := make([]byte, n*int(b)/8)
			for _, v := range specials {
				for at := range n {
					for i := range h {
						h[i] = fill.Float32()*2 - 1
					}
					h[at] = v
					g := dirtyGen(uint64(at))
					s := g.s
					if roundAVX2(dst, h, mn, inv, int(b), &g.s, &g.draws) {
						t.Fatalf("B%d len %d: took h[%d] = %v (t = %v)", b, n, at, v, (v-mn)*inv)
					}
					if g.s != s {
						t.Fatalf("B%d len %d: declining h[%d] = %v moved the generator", b, n, at, v)
					}
				}
			}
			for i := range h {
				h[i] = float32(fill.Intn(1 << 24))
			}
			h[0], h[n-1] = float32(math.Copysign(0, -1)), math.Nextafter32(1<<24, 0)
			g := dirtyGen(uint64(n))
			if !roundAVX2(dst, h, 0, 1, int(b), &g.s, &g.draws) {
				t.Fatalf("B%d len %d: declined t of -0 and just below 2^24", b, n)
			}
		}
	}
}

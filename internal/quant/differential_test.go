package quant

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/tensor"
)

// rowShapes are the value distributions the differential tests sweep. The
// awkward ones pin the corners of the determinism contract: elements equal
// to the row minimum draw nothing, a range whose reciprocal overflows makes
// every element draw and none round up, NaN draws.
var rowShapes = []struct {
	name string
	fill func(h []float32, rng *tensor.RNG)
}{
	{"dense", func(h []float32, rng *tensor.RNG) {
		for i := range h {
			h[i] = rng.Float32()*10 - 5
		}
	}},
	{"relu-sparse", fillReLUSparse},
	{"constant", func(h []float32, rng *tensor.RNG) {
		v := rng.Float32()
		for i := range h {
			h[i] = v
		}
	}},
	{"huge-range", func(h []float32, rng *tensor.RNG) {
		for i := range h {
			h[i] = (rng.Float32()*2 - 1) * math.MaxFloat32
		}
	}},
	{"denormal", func(h []float32, rng *tensor.RNG) {
		for i := range h {
			h[i] = math.Float32frombits(uint32(rng.Intn(1 << 12)))
		}
	}},
	{"denormal-wide", func(h []float32, rng *tensor.RNG) {
		for i := range h {
			h[i] = math.Float32frombits(uint32(rng.Intn(1 << 23)))
		}
	}},
	{"signed-zeros", func(h []float32, rng *tensor.RNG) {
		for i := range h {
			h[i] = math.Float32frombits(uint32(rng.Intn(2)) << 31)
		}
	}},
	{"nan-inf", func(h []float32, rng *tensor.RNG) {
		specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
		for i := range h {
			if h[i] = rng.Float32(); rng.Intn(4) == 0 {
				h[i] = specials[rng.Intn(len(specials))]
			}
		}
	}},
	{"nan-first", func(h []float32, rng *tensor.RNG) {
		for i := range h {
			h[i] = rng.Float32()
		}
		h[0] = float32(math.NaN())
	}},
	// The next four aim at the vector rounder: one special value inside an
	// otherwise ordinary chunk of a wide row sends that chunk, and only that
	// chunk, to the scalar kernel.
	{"nan-mid-chunk", func(h []float32, rng *tensor.RNG) {
		for i := range h {
			h[i] = rng.Float32()*6 - 3
		}
		h[len(h)/2] = float32(math.NaN())
	}},
	{"inf-mid-chunk", func(h []float32, rng *tensor.RNG) {
		for i := range h {
			h[i] = rng.Float32()*6 - 3
		}
		h[len(h)/2] = float32(math.Inf(1 - 2*rng.Intn(2)))
	}},
	{"overflowed-inverse", func(h []float32, rng *tensor.RNG) {
		// A range of at most three denormal steps: 1/scale is +Inf.
		for i := range h {
			h[i] = math.Float32frombits(uint32(rng.Intn(4)))
		}
	}},
	{"minimum-mid-chunk", func(h []float32, rng *tensor.RNG) {
		for i := range h {
			h[i] = rng.Float32()*4 - 1.5
		}
		mn, _ := tensor.MinMax(h)
		for i := 3; i < len(h); i += 5 + rng.Intn(7) {
			h[i] = mn // draws nothing, neighbours do
		}
	}},
}

// eachKernel runs fn with the rounder chosen at init and, where that is the
// vector one, again with only the scalar kernel; name tells failures apart.
func eachKernel(fn func(name string)) {
	if !cpu.AVX2 {
		fn("scalar")
		return
	}
	defer func() { cpu.AVX2 = true }()
	fn("vector")
	cpu.AVX2 = false
	fn("scalar")
}

// fillReLUSparse fills h like a post-ReLU activation row: about half the
// elements sit exactly at the row minimum, 0.
func fillReLUSparse(h []float32, rng *tensor.RNG) {
	for i := range h {
		if h[i] = rng.Float32()*4 - 2; h[i] < 0 {
			h[i] = 0
		}
	}
}

// checkRowMatchesReference quantizes h with each production kernel and the
// frozen oracle from identical generator states and demands equal bytes,
// equal meta bits and an equal generator end state, then holds the decoder
// to its oracle on the produced bytes.
func checkRowMatchesReference(t *testing.T, h []float32, b BitWidth, seed uint64) {
	t.Helper()
	eachKernel(func(kernel string) {
		t.Helper()
		packed := b.PackedSize(len(h))
		got := bytes.Repeat([]byte{0xA5}, packed)
		want := bytes.Repeat([]byte{0x5A}, packed)
		rng, ref := tensor.NewRNG(seed), tensor.NewRNG(seed)
		// A cached Box-Muller half must survive the call untouched.
		rng.NormFloat64()
		ref.NormFloat64()

		gm := QuantizeRow(h, b, got, rng)
		wm := refQuantizeRow(h, b, want, ref)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s B%d len %d: packed bytes differ\n got  %x\n want %x", kernel, b, len(h), got, want)
		}
		if math.Float32bits(gm.Zero) != math.Float32bits(wm.Zero) || math.Float32bits(gm.Scale) != math.Float32bits(wm.Scale) {
			t.Fatalf("%s B%d len %d: meta %+v, want %+v", kernel, b, len(h), gm, wm)
		}
		if rng.State() != ref.State() {
			t.Fatalf("%s B%d len %d: generator state diverged from the reference", kernel, b, len(h))
		}

		out, refOut := make([]float32, len(h)), make([]float32, len(h))
		DequantizeRow(got, gm, b, out)
		refDequantizeRow(want, wm, b, refOut)
		for i := range out {
			if math.Float32bits(out[i]) != math.Float32bits(refOut[i]) {
				t.Fatalf("%s B%d len %d: decoded[%d] = %v, reference %v", kernel, b, len(h), i, out[i], refOut[i])
			}
		}
	})
}

// TestQuantizeRowMatchesReference sweeps every width over lengths that hit
// every word-tail position, for each value distribution.
func TestQuantizeRowMatchesReference(t *testing.T) {
	lengths := []int{602, 700}
	for n := 1; n <= 132; n++ {
		lengths = append(lengths, n)
	}
	for _, shape := range rowShapes {
		t.Run(shape.name, func(t *testing.T) {
			fill := tensor.NewRNG(11)
			for _, b := range Candidates {
				for _, n := range lengths {
					h := make([]float32, n)
					shape.fill(h, fill)
					checkRowMatchesReference(t, h, b, uint64(n)*8+uint64(b))
				}
			}
		})
	}
}

// FuzzQuantizeRowMatchesReference drives the same comparison from raw
// bytes reinterpreted as float32, so the fuzzer reaches bit patterns the
// table does not name.
func FuzzQuantizeRowMatchesReference(f *testing.F) {
	seedRow := func(vals ...float32) []byte {
		var raw []byte
		for _, v := range vals {
			u := math.Float32bits(v)
			raw = append(raw, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
		}
		return raw
	}
	f.Add(seedRow(0, 1, 2, 3, 0, 0.5), uint8(0), uint64(1))
	f.Add(seedRow(1e-44, 0, 3e-45, 1e-40), uint8(1), uint64(2))
	f.Add(seedRow(float32(math.NaN()), 1, float32(math.Inf(1))), uint8(2), uint64(3))
	f.Add(seedRow(-math.MaxFloat32, math.MaxFloat32, 0), uint8(2), uint64(4))
	// Rows wide enough for the vector rounder, each with one of the values
	// it must hand to the scalar kernel or treat as drawing nothing.
	wide := func(special ...float32) []byte {
		vals := make([]float32, 100)
		rng := tensor.NewRNG(uint64(len(special)))
		for i := range vals {
			vals[i] = rng.Float32()*2 - 1
		}
		for i, v := range special {
			vals[20+9*i] = v
		}
		return seedRow(vals...)
	}
	f.Add(wide(), uint8(0), uint64(5))
	f.Add(wide(float32(math.NaN())), uint8(1), uint64(6))
	f.Add(wide(float32(math.Inf(1)), float32(math.Inf(-1))), uint8(2), uint64(7))
	f.Add(wide(-1, -1, -1, -1, -1, -1), uint8(0), uint64(8)) // the row minimum, repeated mid-chunk
	tiny := make([]float32, 72)
	for i := range tiny {
		tiny[i] = math.Float32frombits(uint32(i % 3)) // 1/scale overflows
	}
	f.Add(seedRow(tiny...), uint8(1), uint64(9))
	// Every width through the vector rounder's packer: an ordinary row and a
	// post-ReLU one, whose elements at the minimum draw nothing and sit on
	// the draws an earlier chunk left; 130 is two chunks and a 2-element tail.
	sparse := make([]float32, 130)
	fillReLUSparse(sparse, tensor.NewRNG(10))
	for w := range Candidates {
		f.Add(wide(), uint8(w), uint64(11+w))
		f.Add(seedRow(sparse...), uint8(w), uint64(14+w))
	}
	// reddit-sim's width: a post-ReLU row, and a dense row whose one
	// minimum is the first element of its second chunk.
	relu := make([]float32, 602)
	fillReLUSparse(relu, tensor.NewRNG(17))
	f.Add(seedRow(relu...), uint8(0), uint64(17))
	boundary := make([]float32, 602)
	for i, rng := 0, tensor.NewRNG(18); i < len(boundary); i++ {
		boundary[i] = rng.Float32() + 1
	}
	boundary[codeChunk] = 0
	f.Add(seedRow(boundary...), uint8(2), uint64(18))
	f.Fuzz(func(t *testing.T, raw []byte, width uint8, seed uint64) {
		n := len(raw) / 4
		if n == 0 || n > 700 {
			return
		}
		h := make([]float32, n)
		for i := range h {
			h[i] = math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
		}
		checkRowMatchesReference(t, h, Candidates[int(width)%len(Candidates)], seed)
	})
}

// TestAppendEncodersMatchReference holds the whole-stream encoders to a
// per-row oracle loop: same bytes, same generator end state, with and
// without an index list. Each row shape fills every row of the matrix, and
// one more matrix puts row r's minimum at column r mod 64, so every offset
// of a chunk is a row's only non-drawing element. The widths give every
// vector length 8–64 of a chunk with and without a 1–7 element tail, tails
// alone, several chunks, and reddit-sim's 602 columns.
func TestAppendEncodersMatchReference(t *testing.T) {
	const rows = 64
	type matrix struct {
		name string
		fill func(x *tensor.Matrix, rng *tensor.RNG)
	}
	var matrices []matrix
	for _, shape := range rowShapes {
		matrices = append(matrices, matrix{shape.name, func(x *tensor.Matrix, rng *tensor.RNG) {
			for r := range x.Rows {
				shape.fill(x.Row(r), rng)
			}
		}})
	}
	matrices = append(matrices, matrix{"minimum-at-row-offset", func(x *tensor.Matrix, rng *tensor.RNG) {
		for r := range x.Rows {
			row := x.Row(r)
			for i := range row {
				row[i] = 1 + rng.Float32()
			}
			row[r%codeChunk%len(row)] = 0
		}
	}})
	idx := []int32{22, 0, 7, 7, 13, 1, 63, 40}
	for _, cols := range []int{5, 8, 13, 37, 64, 71, 100, 602} {
		for _, m := range matrices {
			x := tensor.New(rows, cols)
			m.fill(x, tensor.NewRNG(uint64(cols)))
			for _, b := range Candidates {
				for _, sel := range [][]int32{nil, idx} {
					eachKernel(func(kernel string) {
						rng, ref := tensor.NewRNG(9), tensor.NewRNG(9)
						got := AppendQuantizedRows([]byte{0xEE}, x, sel, b, rng)
						want := []byte{0xEE}
						n := x.Rows
						if sel != nil {
							n = len(sel)
						}
						for i := 0; i < n; i++ {
							r := i
							if sel != nil {
								r = int(sel[i])
							}
							want = refAppendRow(want, x.Row(r), b, ref)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s %s B%d cols %d idx=%v: AppendQuantizedRows differs from the reference stream", m.name, kernel, b, cols, sel != nil)
						}
						if rng.State() != ref.State() {
							t.Fatalf("%s %s B%d cols %d idx=%v: generator state diverged", m.name, kernel, b, cols, sel != nil)
						}
					})
				}
			}
		}
	}
}

// refAppendRow appends one wire row encoded by the oracle.
func refAppendRow(dst []byte, row []float32, b BitWidth, rng *tensor.RNG) []byte {
	codes := make([]byte, b.PackedSize(len(row)))
	meta := refQuantizeRow(row, b, codes, rng)
	for _, f := range []float32{meta.Zero, meta.Scale} {
		u := math.Float32bits(f)
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return append(dst, codes...)
}

// TestSharedRangesMatchPerPeerScan is the forward exchange in miniature:
// one matrix, several peers whose row lists overlap, one RowRanges scan
// shared by all of them. Every peer's stream and the generator end state
// must equal what the per-peer scanning encoder (and the oracle) produce.
func TestSharedRangesMatchPerPeerScan(t *testing.T) {
	x := tensor.New(40, 19)
	fillReLUSparse(x.Data, tensor.NewRNG(21))
	peers := [][]int32{
		{0, 3, 5, 39, 12},
		{3, 5, 6, 7, 8, 9, 39},
		{12, 0, 38},
	}
	sent := []int32{0, 3, 5, 6, 7, 8, 9, 12, 38, 39}
	ranges := make([]RowRange, x.Rows)
	for i := range ranges {
		ranges[i] = RowRange{float32(math.NaN()), float32(math.NaN())} // dirty scratch
	}
	RowRanges(ranges, x, sent)

	wrng := tensor.NewRNG(4)
	shared, scanned, ref := tensor.NewRNG(8), tensor.NewRNG(8), tensor.NewRNG(8)
	for _, idx := range peers {
		widths := RandomWidths(len(idx), wrng)
		got, err := AppendQuantizedMixedRanges(nil, x, idx, widths, ranges, shared)
		if err != nil {
			t.Fatal(err)
		}
		perPeer, err := AppendQuantizedMixed(nil, x, idx, widths, scanned)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, b := range groupOrder {
			for i, w := range widths {
				if w == b {
					want = refAppendRow(want, x.Row(int(idx[i])), b, ref)
				}
			}
		}
		if !bytes.Equal(got, perPeer) || !bytes.Equal(got, want) {
			t.Fatalf("peer %v: shared-range stream differs from the per-peer scan", idx)
		}
	}
	if shared.State() != scanned.State() || shared.State() != ref.State() {
		t.Fatal("generator state diverged between shared-range and per-peer encoders")
	}

	for _, r := range sent {
		if mn, mx := tensor.MinMax(x.Row(int(r))); ranges[r] != (RowRange{mn, mx}) {
			t.Fatalf("row %d: scanned range %+v, MinMax (%v, %v)", r, ranges[r], mn, mx)
		}
	}
}

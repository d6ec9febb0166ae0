package quant

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestMixedRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := tensor.New(9, 12)
	x.FillUniform(rng, -2, 2)
	widths := []BitWidth{B2, B8, B4, B4, B2, B8, B2, B4, B8}
	stream, err := QuantizeMixed(x, nil, widths, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) != MixedSize(widths, x.Cols) {
		t.Fatalf("stream %d bytes, MixedSize says %d", len(stream), MixedSize(widths, x.Cols))
	}
	dst := tensor.New(9, 12)
	if err := DequantizeMixed(stream, dst, nil, widths); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		mn, mx := tensor.MinMax(x.Row(i))
		step := float64(mx-mn) / float64(widths[i].Levels())
		for j := 0; j < 12; j++ {
			if d := math.Abs(float64(dst.At(i, j) - x.At(i, j))); d > step+1e-6 {
				t.Fatalf("row %d (width %d): err %v > step %v", i, widths[i], d, step)
			}
		}
	}
}

func TestMixedWithIndices(t *testing.T) {
	rng := tensor.NewRNG(2)
	x := tensor.New(20, 8)
	x.FillUniform(rng, 0, 1)
	srcIdx := []int32{19, 0, 7}
	widths := []BitWidth{B8, B2, B8}
	stream, err := QuantizeMixed(x, srcIdx, widths, rng)
	if err != nil {
		t.Fatal(err)
	}
	dst := tensor.New(5, 8)
	dstIdx := []int32{4, 2, 0}
	if err := DequantizeMixed(stream, dst, dstIdx, widths); err != nil {
		t.Fatal(err)
	}
	// Row mapping: src 19 → dst 4 at 8-bit.
	for j := 0; j < 8; j++ {
		if d := math.Abs(float64(dst.At(4, j) - x.At(19, j))); d > 1.0/255+1e-5 {
			t.Fatalf("mapped row mismatch: %v", d)
		}
	}
}

func TestMixedRejectsBadWidth(t *testing.T) {
	x := tensor.New(1, 4)
	if _, err := QuantizeMixed(x, nil, []BitWidth{3}, tensor.NewRNG(1)); err == nil {
		t.Fatal("expected invalid-width error")
	}
}

func TestMixedRejectsLengthMismatch(t *testing.T) {
	x := tensor.New(2, 4)
	if _, err := QuantizeMixed(x, []int32{0}, []BitWidth{B2, B2}, tensor.NewRNG(1)); err == nil {
		t.Fatal("expected length error")
	}
	dst := tensor.New(2, 4)
	if err := DequantizeMixed(nil, dst, []int32{0}, []BitWidth{B2, B2}); err == nil {
		t.Fatal("expected dst length error")
	}
}

func TestMixedStreamSizeMismatch(t *testing.T) {
	dst := tensor.New(2, 4)
	if err := DequantizeMixed(make([]byte, 1), dst, nil, []BitWidth{B2, B2}); err == nil {
		t.Fatal("expected stream size error")
	}
}

func TestUniformWidths(t *testing.T) {
	ws := UniformWidths(5, B4)
	if len(ws) != 5 {
		t.Fatal("length")
	}
	for _, w := range ws {
		if w != B4 {
			t.Fatal("value")
		}
	}
}

func TestRandomWidthsValidAndVaried(t *testing.T) {
	rng := tensor.NewRNG(3)
	ws := RandomWidths(300, rng)
	seen := map[BitWidth]int{}
	for _, w := range ws {
		if !w.Valid() {
			t.Fatalf("invalid width %d", w)
		}
		seen[w]++
	}
	if len(seen) != 3 {
		t.Fatalf("300 samples should hit all 3 widths, got %v", seen)
	}
}

func TestMixedEmptyWidths(t *testing.T) {
	x := tensor.New(0, 4)
	stream, err := QuantizeMixed(x, nil, nil, tensor.NewRNG(1))
	if err != nil || len(stream) != 0 {
		t.Fatalf("empty mixed stream: %v, %d bytes", err, len(stream))
	}
	dst := tensor.New(0, 4)
	if err := DequantizeMixed(stream, dst, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixedRejectsPassthroughWidth(t *testing.T) {
	// B32 is a codec-level passthrough: mixed wire streams must refuse it
	// with a clean error on both sides, never panic in the size math.
	rng := tensor.NewRNG(1)
	x := tensor.New(3, 8)
	x.FillUniform(rng, -1, 1)
	widths := []BitWidth{B8, B32, B2}
	if _, err := QuantizeMixed(x, nil, widths, rng); err == nil {
		t.Fatal("QuantizeMixed must reject B32")
	}
	if err := DequantizeMixed(nil, x, nil, widths); err == nil {
		t.Fatal("DequantizeMixed must reject B32")
	}
	if got := WireSize(2, 8, B32); got != 2*4*8 {
		t.Fatalf("WireSize at B32 = %d, want raw fp32 size %d", got, 2*4*8)
	}
	if B32.Packable() || !B32.Valid() {
		t.Fatal("B32 must be Valid but not Packable")
	}
}

// TestMixedStreamUnbiasedWithinVarianceBound takes Theorem 1 past the single
// row: 12 rows of 203 columns (three chunks, an 8-lane group and a 3-element
// tail) at widths cycling through {2, 4, 8}, each row with its own scale and
// offset, through one AppendQuantizedMixedRanges → DequantizeMixed round trip
// per rounding seed, 200 fixed seeds, on the vector kernels and on the Go
// loops. With e = dq(q(h)) − h and S the row's step:
//
//   - every element's mean error over the seeds is within 5 standard errors
//     of 0, and so is every row's; one rounding has variance S²·f(1−f) ≤ S²/4
//     for a fraction f, so the standard errors are at most S/(2√200) and
//     S/(2√(200·203));
//   - every row's mean ‖e‖² is at most 1.1 × D·S²/6. The theorem's 1/6 is
//     the mean of f(1−f) over a uniform fraction; 203 uniform values sample
//     it to about 3 %, hence the 10 %.
func TestMixedStreamUnbiasedWithinVarianceBound(t *testing.T) {
	const rows, dim, trials = 12, 203, 200
	fill := tensor.NewRNG(77)
	x := tensor.New(rows+3, dim)
	for r := 0; r < x.Rows; r++ {
		for j, row := 0, x.Row(r); j < dim; j++ {
			row[j] = (fill.Float32()*2-1)*float32(r+1) + float32(r%4)
		}
	}
	idx, dstRows := make([]int32, rows), make([]int32, rows)
	widths := make([]BitWidth, rows)
	for i := range idx {
		idx[i] = int32((i*5 + 2) % x.Rows) // 15 rows, stride 5: no repeats in 12
		dstRows[i] = int32(rows - 1 - i)
		widths[i] = Candidates[i%len(Candidates)]
	}
	ranges := make([]RowRange, x.Rows)
	RowRanges(ranges, x, idx)
	eachKernel(func(kernel string) {
		sum := make([]float64, rows*dim)
		sq := make([]float64, rows)
		dst := tensor.New(rows, dim)
		var stream []byte
		for seed := uint64(0); seed < trials; seed++ {
			var err error
			stream, err = AppendQuantizedMixedRanges(stream[:0], x, idx, widths, ranges, tensor.NewRNG(1000+seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := DequantizeMixed(stream, dst, dstRows, widths); err != nil {
				t.Fatal(err)
			}
			for i := range idx {
				h, out := x.Row(int(idx[i])), dst.Row(int(dstRows[i]))
				for j := range h {
					e := float64(out[j]) - float64(h[j])
					sum[i*dim+j] += e
					sq[i] += e * e
				}
			}
		}
		for i, b := range widths {
			rg := ranges[idx[i]]
			step := float64(rg.Max-rg.Min) / float64(b.Levels())
			var rowMean float64
			for j, s := range sum[i*dim : (i+1)*dim] {
				if mean, tol := s/trials, 5*step/(2*math.Sqrt(trials)); math.Abs(mean) > tol {
					t.Errorf("%s: row %d (B%d) element %d: mean error %v over %d seeds, want within %v of 0", kernel, i, b, j, mean, trials, tol)
				}
				rowMean += s / trials / dim
			}
			if tol := 5 * step / (2 * math.Sqrt(trials*dim)); math.Abs(rowMean) > tol {
				t.Errorf("%s: row %d (B%d): mean error %v, want within %v of 0", kernel, i, b, rowMean, tol)
			}
			if got, bound := sq[i]/trials, RowVarianceBound(x.Row(int(idx[i])), b); got > 1.1*bound {
				t.Errorf("%s: row %d (B%d): mean squared error %v exceeds Theorem 1's D·S²/6 = %v by more than 10 %%", kernel, i, b, got, bound)
			} else if got < 0.5*bound {
				t.Errorf("%s: row %d (B%d): mean squared error %v is under half of D·S²/6 = %v: is the rounding still stochastic?", kernel, i, b, got, bound)
			}
		}
	})
}

// checkUniformIsOneGroupMixed holds the uniform stream (AppendQuantizedRows /
// DequantizeRows at one width) to the mixed stream whose widths are all that
// width: the same bytes behind a dirty prefix, the same generator end state,
// the same floats stored, and — what lets a uniform codec decode its backward
// stream with DequantizeMixedAdd — the same sums as staging the decoded rows
// and adding them in stream order. idx nil means every row; a repeated entry
// is a row shipped, stored over and added into more than once.
func checkUniformIsOneGroupMixed(t testing.TB, x *tensor.Matrix, idx []int32, b BitWidth, seed uint64) {
	t.Helper()
	rows := x.Rows
	if idx != nil {
		rows = len(idx)
	}
	widths := UniformWidths(rows, b)
	eachKernel(func(kernel string) {
		t.Helper()
		urng, mrng := tensor.NewRNG(seed), tensor.NewRNG(seed)
		uni := AppendQuantizedRows([]byte{0xEE}, x, idx, b, urng)
		mixed, err := AppendQuantizedMixed([]byte{0xEE}, x, idx, widths, mrng)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(uni, mixed) {
			t.Fatalf("%s B%d %dx%d idx=%v: uniform and one-group mixed streams differ", kernel, b, rows, x.Cols, idx)
		}
		if len(uni) != 1+WireSize(rows, x.Cols, b) || WireSize(rows, x.Cols, b) != MixedSize(widths, x.Cols) {
			t.Fatalf("%s B%d: stream is %d bytes, WireSize %d, MixedSize %d", kernel, b, len(uni)-1, WireSize(rows, x.Cols, b), MixedSize(widths, x.Cols))
		}
		if urng.State() != mrng.State() {
			t.Fatalf("%s B%d %dx%d: generator end states differ", kernel, b, rows, x.Cols)
		}
		stream := uni[1:]

		nan := float32(math.NaN())
		stored, storedMixed := tensor.New(x.Rows, x.Cols), tensor.New(x.Rows, x.Cols)
		for i := range stored.Data {
			stored.Data[i], storedMixed.Data[i] = nan, nan // rows idx skips stay poisoned on both
		}
		if err := DequantizeRows(stream, stored, idx, rows, b); err != nil {
			t.Fatal(err)
		}
		if err := DequantizeMixed(stream, storedMixed, idx, widths); err != nil {
			t.Fatal(err)
		}

		staged := tensor.New(rows, x.Cols)
		if err := DequantizeRows(stream, staged, nil, rows, b); err != nil {
			t.Fatal(err)
		}
		sums, sumsMixed := tensor.New(x.Rows, x.Cols), tensor.New(x.Rows, x.Cols)
		fill := tensor.NewRNG(seed + 1)
		for i := range sums.Data {
			sums.Data[i] = fill.Float32()*2 - 1
		}
		copy(sumsMixed.Data, sums.Data)
		for i := 0; i < rows; i++ {
			r := i
			if idx != nil {
				r = int(idx[i])
			}
			for j, v := range staged.Row(i) {
				sums.Row(r)[j] += v
			}
		}
		if err := DequantizeMixedAdd(stream, sumsMixed, idx, widths); err != nil {
			t.Fatal(err)
		}
		for i := range stored.Data {
			if math.Float32bits(stored.Data[i]) != math.Float32bits(storedMixed.Data[i]) {
				t.Fatalf("%s B%d %dx%d: stored element %d is %v from the uniform decoder, %v from the mixed one", kernel, b, rows, x.Cols, i, stored.Data[i], storedMixed.Data[i])
			}
			if math.Float32bits(sums.Data[i]) != math.Float32bits(sumsMixed.Data[i]) {
				t.Fatalf("%s B%d %dx%d: summed element %d is %v staged, %v added from the codes", kernel, b, rows, x.Cols, i, sums.Data[i], sumsMixed.Data[i])
			}
		}
	})
}

// uniformStreamCases are the (columns, row list) pairs the equivalence is
// checked on, and the fuzz target's seeds: odd widths that leave a scalar
// tail, widths that are whole vector groups and chunks, the 602 columns of
// the widest message the benchmark ships; every row, a permuted subset, and
// rows sent twice.
var uniformStreamCases = []struct {
	cols int
	idx  []int32
}{
	{1, nil}, {7, nil}, {64, nil}, {100, nil}, {602, nil},
	{7, []int32{10, 0, 3}}, {64, []int32{5, 5, 2, 5}}, {100, []int32{0, 10, 0, 10, 1}},
	{37, []int32{}}, {602, []int32{9, 9}},
}

// TestUniformStreamIsOneGroupMixedStream is the equivalence the single stream
// encoder and decoder rest on.
func TestUniformStreamIsOneGroupMixedStream(t *testing.T) {
	for _, tc := range uniformStreamCases {
		x := tensor.New(11, tc.cols)
		fillReLUSparse(x.Data, tensor.NewRNG(uint64(tc.cols)))
		for _, b := range Candidates {
			checkUniformIsOneGroupMixed(t, x, tc.idx, b, uint64(tc.cols)*8+uint64(b))
		}
	}
}

// FuzzUniformStreamIsOneGroupMixedStream drives the same comparison from raw
// bytes reinterpreted as a float32 matrix of cols columns; pick, when not
// empty, is the row list (each byte a row, modulo the row count).
func FuzzUniformStreamIsOneGroupMixedStream(f *testing.F) {
	for i, tc := range uniformStreamCases {
		x := tensor.New(11, tc.cols)
		fillReLUSparse(x.Data, tensor.NewRNG(uint64(tc.cols)))
		raw := make([]byte, 4*len(x.Data))
		for j, v := range x.Data {
			binary.LittleEndian.PutUint32(raw[4*j:], math.Float32bits(v))
		}
		pick := make([]byte, len(tc.idx))
		for j, r := range tc.idx {
			pick[j] = byte(r)
		}
		f.Add(raw, uint16(tc.cols), pick, uint8(i), uint64(i))
	}
	f.Fuzz(func(t *testing.T, raw []byte, cols uint16, pick []byte, width uint8, seed uint64) {
		n := len(raw) / 4
		if cols == 0 || cols > 700 || n < int(cols) || n > 8192 || len(pick) > 64 {
			return
		}
		x := tensor.New(n/int(cols), int(cols))
		for i := range x.Data {
			x.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		var idx []int32
		for _, p := range pick {
			idx = append(idx, int32(int(p)%x.Rows))
		}
		checkUniformIsOneGroupMixed(t, x, idx, Candidates[int(width)%len(Candidates)], seed)
	})
}

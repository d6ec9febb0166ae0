package quant

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/kerneltest"
	"repro/internal/tensor"
)

// checkDequantizeMatchesPortable holds dequantizeRow — the store form, which
// must overwrite whatever init holds, or with add the accumulate form on top
// of it — to its Go loops as float32 bits, on an output that starts off
// elements into a sentinel-guarded buffer. The codes are copied to the end of
// guard, memory from kerneltest.AtPageEnd: reading one byte past them
// faults, and they must not change.
func checkDequantizeMatchesPortable(t testing.TB, guard, codes []byte, meta RowMeta, b BitWidth, init []float32, off int, add bool) {
	t.Helper()
	n := len(init)
	src := guard[len(guard)-b.PackedSize(n):]
	copy(src, codes)
	what := fmt.Sprintf("dequantize B%d len %d scale %v zero %v add=%v", b, n, meta.Scale, meta.Zero, add)
	kerneltest.Differential(t, what, init, off, func(out []float32) { dequantizeRow(src, meta, b, out, add) })
	if !bytes.Equal(src, codes[:len(src)]) {
		t.Fatalf("%s: the codes were written", what)
	}
}

func TestDequantizeMatchesPortable(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	metas := []RowMeta{
		{Zero: -1.25, Scale: 0.0173},
		{Zero: 3, Scale: 1.0 / 3}, // the product rounds before the add
		{Zero: 7, Scale: 0},       // a constant row
		{Zero: math.Float32frombits(0x80000000), Scale: 0},
		{Zero: 0, Scale: inf}, // 0·Inf for code 0
		{Zero: 1, Scale: -inf},
		{Zero: inf, Scale: -inf}, // Inf − Inf
		{Zero: 0, Scale: nan},
		{Zero: nan, Scale: 1},
		{Zero: math.MaxFloat32, Scale: math.MaxFloat32}, // overflows in the add
		{Zero: math.Float32frombits(1), Scale: math.Float32frombits(3)},
	}
	rng := tensor.NewRNG(53)
	guard := kerneltest.AtPageEnd[uint8](t, 602)
	for _, n := range kerneltest.Widths() {
		for _, b := range Candidates {
			codes := make([]byte, b.PackedSize(n))
			for i := range codes {
				codes[i] = byte(rng.Intn(256))
			}
			for mi, meta := range metas {
				off := (n + mi) % 10
				init := make([]float32, n)
				for i := range init {
					init[i] = rng.Float32()*4 - 2
				}
				if n > 2 {
					init[n/2], init[n-1] = nan, -inf
				}
				checkDequantizeMatchesPortable(t, guard, codes, meta, b, init, off, false)
				checkDequantizeMatchesPortable(t, guard, codes, meta, b, init, off, true)
			}
		}
	}
}

// FuzzDequantizeRowMatchesPortable takes the packed codes, the meta's bits,
// the width, how many codes of the last byte are in the row, the offsets and
// the form from the fuzzer.
func FuzzDequantizeRowMatchesPortable(f *testing.F) {
	f.Add([]byte{0x1B, 0xE4, 0xFF}, uint32(0x3F800000), uint32(0), uint8(0), uint8(1), uint8(0), false)
	f.Add(bytes.Repeat([]byte{0x93, 0x27, 0xC5}, 25), uint32(0x3C23D70A), uint32(0xBF800000), uint8(0), uint8(3), uint8(7), true)
	f.Add(bytes.Repeat([]byte{0x0F, 0xA1}, 38), uint32(0x7F800000), uint32(0x3F800000), uint8(1), uint8(1), uint8(4), true)
	f.Add(bytes.Repeat([]byte{0x80, 0x01, 0xFE}, 43), uint32(0x7FC00000), uint32(0xFF800000), uint8(2), uint8(0), uint8(9), false)
	f.Fuzz(func(t *testing.T, codes []byte, scaleBits, zeroBits uint32, width, trim, off uint8, add bool) {
		b := Candidates[int(width)%len(Candidates)]
		perByte := 8 / int(b)
		n := len(codes)*perByte - int(trim)%perByte
		if n <= 0 || n > 4096 {
			return
		}
		meta := RowMeta{Zero: math.Float32frombits(zeroBits), Scale: math.Float32frombits(scaleBits)}
		init := make([]float32, n)
		for i := range init {
			init[i] = float32(i%7) - 3
		}
		checkDequantizeMatchesPortable(t, kerneltest.AtPageEnd[uint8](t, len(codes)), codes, meta, b, init, int(off%10), add)
	})
}

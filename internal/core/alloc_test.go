package core

import (
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// TestCodecSteadyStateAllocs pins the zero-allocation contract of the
// warmed encode/decode hot paths: with an arena whose freelists already
// hold the needed buffer and matrix classes (the state every epoch after
// the first runs in), a full encode → decode round trip must not allocate.
// The race detector instruments the allocator, so the exact assertions
// only run in normal builds; the bodies still execute under -race.
func TestCodecSteadyStateAllocs(t *testing.T) {
	const rows, dim = 12, 32
	x := tensor.New(rows, dim)
	rng := tensor.NewRNG(3)
	x.FillUniform(rng, -1, 1)
	idx := make([]int32, rows)
	for i := range idx {
		idx[i] = int32(i)
	}
	check := func(name string, avg float64) {
		if avg != 0 && !raceEnabled {
			t.Errorf("%s allocates %.1f times per run, want 0", name, avg)
		}
	}

	t.Run("fp32-rows", func(t *testing.T) {
		a := NewArena()
		dst := tensor.New(rows, dim)
		warm := func() {
			buf := appendRows(a.GetBuf(4*rows*dim), x, idx)
			if err := readRows(buf, dst, idx, false); err != nil {
				t.Fatal(err)
			}
			a.PutBuf(buf)
		}
		warm()
		check("fp32 row round trip", testing.AllocsPerRun(20, warm))
	})

	// The quantized exchange's own hot path: ranges scanned once into the
	// arena's row-range scratch, mixed-width encode from them, and the
	// backward receive's decode-and-add straight into the gradient rows.
	t.Run("quantized-exchange", func(t *testing.T) {
		a := NewArena()
		widths := make([]quant.BitWidth, rows)
		for i := range widths {
			widths[i] = quant.Candidates[i%len(quant.Candidates)]
		}
		dst := tensor.New(rows, dim)
		warm := func() {
			ranges := a.RowRanges(x.Rows)
			quant.RowRanges(ranges, x, idx)
			buf, err := quant.AppendQuantizedMixedRanges(a.GetBuf(quant.MixedSize(widths, dim)), x, idx, widths, ranges, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := quant.DequantizeMixedAdd(buf, dst, idx, widths); err != nil {
				t.Fatal(err)
			}
			a.PutBuf(buf)
		}
		warm()
		check("quantized exchange round trip", testing.AllocsPerRun(20, warm))
	})
}

package quant

import (
	"testing"

	"repro/internal/tensor"
)

// TestRoundTripSteadyStateAllocs pins the zero-allocation contract of the
// append-style pack/unpack hot path: once the destination buffer has grown
// to wire size, quantize → dequantize round trips must not allocate at
// all, for every packed width and for the mixed-width grouped layout.
// The race detector instruments allocations, so the exact assertion only
// runs in normal builds (the bodies still execute under -race).
func TestRoundTripSteadyStateAllocs(t *testing.T) {
	x := tensor.New(16, 32)
	rng := tensor.NewRNG(7)
	x.FillUniform(rng, -2, 2)
	idx := make([]int32, x.Rows)
	for i := range idx {
		idx[i] = int32(i)
	}
	dst := tensor.New(16, 32)

	for _, b := range []BitWidth{B2, B4, B8} {
		buf := make([]byte, 0, WireSize(len(idx), x.Cols, b))
		avg := testing.AllocsPerRun(20, func() {
			stream := AppendQuantizedRows(buf, x, idx, b, rng)
			if err := DequantizeRows(stream, dst, idx, len(idx), b); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 && !raceEnabled {
			t.Errorf("B%d round trip allocates %.1f times per run, want 0", b, avg)
		}
	}

	widths := make([]BitWidth, len(idx))
	for i := range widths {
		widths[i] = []BitWidth{B2, B4, B8}[i%3]
	}
	buf := make([]byte, 0, MixedSize(widths, x.Cols))
	avg := testing.AllocsPerRun(20, func() {
		stream, err := AppendQuantizedMixed(buf, x, idx, widths, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := DequantizeMixed(stream, dst, idx, widths); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 && !raceEnabled {
		t.Errorf("mixed round trip allocates %.1f times per run, want 0", avg)
	}

	// The exchange's variant: ranges scanned once into caller scratch and
	// shared by the encoder, decode-and-add straight into dst.
	ranges := make([]RowRange, x.Rows)
	avg = testing.AllocsPerRun(20, func() {
		RowRanges(ranges, x, idx)
		stream, err := AppendQuantizedMixedRanges(buf, x, idx, widths, ranges, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := DequantizeMixedAdd(stream, dst, idx, widths); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 && !raceEnabled {
		t.Errorf("shared-range encode + decode-add allocates %.1f times per run, want 0", avg)
	}
}

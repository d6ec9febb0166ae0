package core

import (
	"bytes"
	"testing"

	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
)

// FuzzCodecDecode feeds mutated wire bytes to every codec decoder in the
// package. Decoders sit on the trust boundary of any future multi-process
// transport, so they must reject corrupted streams with an error — never
// a panic or an out-of-range write. Run as a regular test it replays the
// seed corpus; CI additionally runs a short -fuzztime smoke.
func FuzzCodecDecode(f *testing.F) {
	// Seed with one valid stream per wire format so mutation starts from
	// decodable inputs: the uniform stream at every packed width, the
	// adaptive codec's mixed-width stream and raw float32 rows.
	x := tensor.New(3, 8)
	rng := tensor.NewRNG(1)
	x.FillUniform(rng, -1, 1)
	idx := []int32{0, 1, 2}
	mixed := quant.RandomWidths(len(idx), tensor.NewRNG(2))
	for _, b := range []quant.BitWidth{quant.B2, quant.B4, quant.B8} {
		f.Add(quant.QuantizeRows(x, idx, b, rng))
	}
	m, err := quant.QuantizeMixed(x, idx, mixed, rng)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(m)
	f.Add(appendRows(nil, x, idx))

	f.Fuzz(func(t *testing.T, data []byte) {
		dst := tensor.New(4, 8)
		rows := []int32{0, 1, 2}

		// Quantized streams: every packed width, plus the mixed-width
		// grouped layout the adaptive codec ships.
		for _, b := range []quant.BitWidth{quant.B2, quant.B4, quant.B8} {
			_ = quant.DequantizeRows(data, dst, rows, len(rows), b)
			_ = quant.DequantizeMixed(data, dst, rows, quant.UniformWidths(len(rows), b))
		}
		_ = quant.DequantizeMixed(data, dst, rows, mixed)
		_ = quant.DequantizeMixedAdd(data, dst, rows, mixed)

		// Full-precision rows (fp32 / pipegcn / sancus payloads).
		_ = readRows(data, dst, rows, false)
		_ = readRows(data, dst, rows, true)
	})
}

// FuzzAssignWireDecode feeds mutated bytes to the assignment sideband's two
// decoders, seeded with a real trace and real width payloads. A payload that
// decodes must hold no more values than its bytes can carry, only Valid
// widths, and re-encode to exactly the bytes it came from (the decoders
// reject trailing bytes and set padding bits, so a decoded payload is
// consumed whole).
func FuzzAssignWireDecode(f *testing.F) {
	dep := testDeploy(synthetic.MustLoad("tiny", 1), 3, GCN)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	st := newAssignState(&cfg, dep.Locals[1], dep.Dataset.Features.Cols)
	rng := tensor.NewRNG(3)
	for _, dir := range directions {
		for _, g := range st.ranges[dir] {
			for _, rs := range g {
				for j := range rs {
					rs[j] = rng.Float32()
				}
			}
		}
	}
	report := st.report(1)
	f.Add(encodeTrace(&report))
	widthsOf := func(st *assignState) *widthMsg {
		m := &widthMsg{}
		for _, dir := range directions {
			m.Send[dir], m.Recv[dir] = emptyWidthGrid(dir, cfg.Layers, 3), emptyWidthGrid(dir, cfg.Layers, 3)
			for l := dir.firstLayer(); l < cfg.Layers; l++ {
				m.Send[dir][l], m.Recv[dir][l] = st.widths[dir][l].send, st.widths[dir][l].recv
			}
		}
		return m
	}
	f.Add(encodeWidths(widthsOf(st)))
	st.installRandomWidths(5, 1, 3, 1)
	f.Add(encodeWidths(widthsOf(st)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var tm traceMsg
		if decodeTrace(data, &tm) == nil {
			values := 0
			for _, s := range tm.RecvAlpha {
				values += 2 * len(s) // a float64 is two float32s' bytes
			}
			for _, cube := range tm.Range {
				for _, g := range cube {
					for _, s := range g {
						values += len(s)
					}
				}
			}
			if 4*values > len(data) {
				t.Fatalf("%d bytes decoded to %d float32s' worth of values", len(data), values)
			}
			if re := encodeTrace(&tm); !bytes.Equal(re, data) {
				t.Fatalf("trace re-encodes differently:\n got  %x\n want %x", re, data)
			}
		}
		var wm widthMsg
		if decodeWidths(data, &wm) == nil {
			widths := 0
			for _, cubes := range [][2][][][]quant.BitWidth{wm.Send, wm.Recv} {
				for _, cube := range cubes {
					for _, g := range cube {
						for _, ws := range g {
							widths += len(ws)
							for _, w := range ws {
								if !w.Valid() {
									t.Fatalf("decoded width %d is not Valid", w)
								}
							}
						}
					}
				}
			}
			if widths > 4*len(data) {
				t.Fatalf("%d bytes decoded to %d widths", len(data), widths)
			}
			if re := encodeWidths(&wm); !bytes.Equal(re, data) {
				t.Fatalf("widths re-encode differently:\n got  %x\n want %x", re, data)
			}
		}
	})
}

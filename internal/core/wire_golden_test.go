package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the wire-format golden fixtures in internal/wire/testdata")

const goldenDir = "../wire/testdata"

// goldenInput builds the deterministic 3×8 payload matrix every fixture
// encodes (one RNG stream for the values, a separate per-fixture stream
// for stochastic rounding so fixtures stay independent).
func goldenInput() (*tensor.Matrix, []int32) {
	x := tensor.New(3, 8)
	x.FillUniform(tensor.NewRNG(7), -1, 1)
	return x, []int32{0, 1, 2}
}

// mixedWidths returns a deterministic grouped-width vector led by b — the
// adaptive/random codecs' mixed wire layout with all packable groups
// present.
func mixedWidths(b quant.BitWidth) []quant.BitWidth {
	cycle := []quant.BitWidth{quant.B2, quant.B4, quant.B8}
	start := 0
	for i, w := range cycle {
		if w == b {
			start = i
		}
	}
	out := make([]quant.BitWidth, 3)
	for i := range out {
		out[i] = cycle[(start+i)%len(cycle)]
	}
	return out
}

// TestWireGoldenFrames pins the over-the-wire byte layout of every codec
// at every shipped bit-width: each fixture in internal/wire/testdata is a
// complete framed message (length prefix, header, codec payload) that the
// current encoders must reproduce byte-exactly and the current decoders
// must consume without error. A diff here means the wire format drifted —
// bump wire.Version rather than silently breaking cross-process or
// cross-build runs. Regenerate intentionally with -update-golden.
func TestWireGoldenFrames(t *testing.T) {
	x, idx := goldenInput()
	rows := []int32{0, 1, 2}

	negated := x.Clone()
	for i, v := range negated.Data {
		negated.Data[i] = -v
	}
	x2 := x.Clone()
	for i := range x2.Data {
		x2.Data[i] += 0.125
	}

	quantized := func(b quant.BitWidth, seed uint64) []byte {
		return quant.QuantizeRows(x, idx, b, tensor.NewRNG(seed))
	}
	mixed := func(b quant.BitWidth, seed uint64) []byte {
		p, err := quant.QuantizeMixed(x, idx, mixedWidths(b), tensor.NewRNG(seed))
		if err != nil {
			t.Fatalf("QuantizeMixed(%d): %v", b, err)
		}
		return p
	}
	dequantRows := func(b quant.BitWidth) func([]byte) error {
		return func(p []byte) error {
			return quant.DequantizeRows(p, tensor.New(3, 8), rows, len(rows), b)
		}
	}
	dequantMixed := func(b quant.BitWidth) func([]byte) error {
		return func(p []byte) error {
			return quant.DequantizeMixed(p, tensor.New(3, 8), rows, mixedWidths(b))
		}
	}
	fullRowsAt := func(order []int32) func([]byte) error {
		return func(p []byte) error {
			dst := tensor.New(3, 8)
			if err := readRows(p, dst, order, false); err != nil {
				return err
			}
			// Full-precision formats are lossless: require bit-exact values.
			if !bytes.Equal(appendRows(nil, dst, order), p) {
				t.Fatal("fp32 wire round-trip not bit-exact")
			}
			return nil
		}
	}
	fullRows := fullRowsAt(rows)

	// seq is each fixture's frame sequence number, fixed per case so that
	// adding or removing a case leaves every other fixture's bytes alone.
	cases := []struct {
		name    string
		seq     uint32
		payload []byte
		decode  func([]byte) error
	}{
		// Packed uniform streams (uniform codec wire format). B32 is not a
		// packed stream — at full precision every quantizing codec ships
		// the raw fp32 row passthrough, so *_b32 fixtures pin that layout.
		{"uniform_b2", 0, quantized(quant.B2, 100), dequantRows(quant.B2)},
		{"uniform_b4", 1, quantized(quant.B4, 101), dequantRows(quant.B4)},
		{"uniform_b8", 2, quantized(quant.B8, 102), dequantRows(quant.B8)},
		{"uniform_b32", 3, appendRows(nil, x, idx), fullRows},
		// Adaptive codec: grouped mixed-width layout for packable widths,
		// fp32 passthrough at B32.
		{"adaptive_b2", 8, mixed(quant.B2, 120), dequantMixed(quant.B2)},
		{"adaptive_b4", 9, mixed(quant.B4, 121), dequantMixed(quant.B4)},
		{"adaptive_b8", 10, mixed(quant.B8, 122), dequantMixed(quant.B8)},
		{"adaptive_b32", 11, appendRows(nil, x, []int32{2, 1, 0}), fullRowsAt([]int32{2, 1, 0})},
		// Random-assignment codec shares the mixed grouped layout with a
		// different width vector per round; same wire grammar.
		{"random_b2", 12, mixed(quant.B2, 130), dequantMixed(quant.B2)},
		{"random_b4", 13, mixed(quant.B4, 131), dequantMixed(quant.B4)},
		{"random_b8", 14, mixed(quant.B8, 132), dequantMixed(quant.B8)},
		{"random_b32", 15, appendRows(nil, x2, []int32{1, 0, 2}), fullRowsAt([]int32{1, 0, 2})},
		// Full-precision row formats (inherently 32-bit): fp32 baseline,
		// pipegcn's stale exchange, sancus' broadcast all serialize rows
		// as little-endian float32.
		{"fp32_b32", 16, appendRows(nil, x, idx), fullRows},
		{"pipegcn_b32", 17, appendRows(nil, x2, idx), fullRows},
		{"sancus_b32", 18, appendRows(nil, negated, idx), fullRows},
	}

	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := wire.Frame{Op: wire.OpData, Seq: tc.seq, Src: 1, Dst: 2, Payload: tc.payload}
			framed := wire.AppendFrame(nil, f)
			path := filepath.Join(goldenDir, tc.name+".frame")
			if *updateGolden {
				if err := os.WriteFile(path, framed, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			committed, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden to generate): %v", err)
			}
			if !bytes.Equal(committed, framed) {
				t.Fatalf("wire format drifted: re-encoding %s produced %d bytes that differ from the %d committed; if intentional, bump wire.Version and regenerate with -update-golden",
					tc.name, len(framed), len(committed))
			}
			got, n, err := wire.ParseFrame(committed)
			if err != nil {
				t.Fatalf("ParseFrame: %v", err)
			}
			if n != len(committed) {
				t.Fatalf("frame consumed %d of %d fixture bytes", n, len(committed))
			}
			if got.Op != f.Op || got.Seq != f.Seq || got.Src != f.Src || got.Dst != f.Dst {
				t.Fatalf("frame header drifted: %+v", got)
			}
			if !bytes.Equal(got.Payload, tc.payload) {
				t.Fatal("framed payload differs from codec output")
			}
			if err := tc.decode(got.Payload); err != nil {
				t.Fatalf("decoder rejected its own golden payload: %v", err)
			}
		})
	}
}

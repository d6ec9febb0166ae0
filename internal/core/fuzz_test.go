package core

import (
	"testing"

	"repro/internal/quant"
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
	f.Add(rowsToBytes(x, idx))

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
		_ = bytesToRows(data, dst, rows, 1)
		_ = addBytesToRows(data, dst, rows)
	})
}

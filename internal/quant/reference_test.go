package quant

import (
	"encoding/binary"
	"math"

	"repro/internal/tensor"
)

// Frozen copies of the pre-rewrite kernels. They are the oracle the
// differential tests hold the production quantizer and decoder to: equal
// bytes, equal RowMeta bits, equal generator state. Do not optimize them.

// refQuantizeRow is QuantizeRow as it stood before the single-pass rewrite:
// min/max scan, then one stochasticRound call per element through the
// shared *tensor.RNG.
func refQuantizeRow(h []float32, b BitWidth, dst []byte, rng *tensor.RNG) RowMeta {
	mn, mx := tensor.MinMax(h)
	levels := float32(b.Levels())
	scale := (mx - mn) / levels
	meta := RowMeta{Zero: mn, Scale: scale}
	packed := b.PackedSize(len(h))
	if scale == 0 {
		for i := range dst[:packed] {
			dst[i] = 0
		}
		return meta
	}
	inv := 1 / scale
	shift := uint(b)
	maxCode := b.Levels()
	perWord := 64 / int(b)
	i, o, n := 0, 0, len(h)
	for ; n-i >= perWord; i += perWord {
		var word uint64
		pos := uint(0)
		for _, v := range h[i : i+perWord] {
			t := (v - mn) * inv
			code := refStochasticRound(t, rng)
			if code > maxCode {
				code = maxCode
			}
			word |= uint64(code) << pos
			pos += shift
		}
		binary.LittleEndian.PutUint64(dst[o:], word)
		o += 8
	}
	if i < n {
		var word uint64
		pos := uint(0)
		for _, v := range h[i:n] {
			t := (v - mn) * inv
			code := refStochasticRound(t, rng)
			if code > maxCode {
				code = maxCode
			}
			word |= uint64(code) << pos
			pos += shift
		}
		for ; o < packed; o++ {
			dst[o] = byte(word)
			word >>= 8
		}
	}
	return meta
}

func refStochasticRound(t float32, rng *tensor.RNG) uint32 {
	if t <= 0 {
		return 0
	}
	fl := float32(math.Floor(float64(t)))
	frac := t - fl
	c := uint32(fl)
	if rng.Float32() < frac {
		c++
	}
	return c
}

// refDequantizeRow is DequantizeRow before the per-width loops.
func refDequantizeRow(src []byte, meta RowMeta, b BitWidth, out []float32) {
	mask := uint64(b.Levels())
	shift := uint(b)
	scale, zero := meta.Scale, meta.Zero
	perWord := 64 / int(b)
	i, o, n := 0, 0, len(out)
	for ; n-i >= perWord; i += perWord {
		word := binary.LittleEndian.Uint64(src[o:])
		o += 8
		for j := 0; j < perWord; j++ {
			out[i+j] = float32(word&mask)*scale + zero
			word >>= shift
		}
	}
	if i < n {
		var word uint64
		for k := b.PackedSize(n) - 1; k >= o; k-- {
			word = word<<8 | uint64(src[k])
		}
		for ; i < n; i++ {
			out[i] = float32(word&mask)*scale + zero
			word >>= shift
		}
	}
}

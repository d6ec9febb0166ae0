// Package quant implements the paper's stochastic integer quantization
// (Eqn. 4), deterministic de-quantization (Eqn. 5) and the 2/4/8-bit
// packing of quantized messages into byte streams used on the wire
// (following the EXACT-style merge into uint8 streams described in §5).
//
// Each message (one node's feature/embedding/gradient row) is quantized
// independently with its own zero-point Z = min(h) and scale
// S = (max(h)−min(h))/(2^b−1). Stochastic rounding makes the de-quantized
// estimate unbiased with variance D·S²/6 (Theorem 1) — both properties are
// verified by tests, for one row and through a mixed-width stream.
//
// The Go loops in this file define the bytes and the values: which elements
// draw and in what order (QuantizeRow), LSB-first packing (pack), and
// float32(code)*S + Z with the multiply rounded before the add
// (dequantizeGo). On amd64 with AVX2 (cpu.Vector) two kernels stand in for
// them, held to those loops as bits by the differential tests: roundAVX2
// (round_amd64.s) rounds and packs the multiple-of-8 prefix of every
// 64-element chunk in one call — t, the draw mask and the range check in
// registers, one generator step per drawing element in element order, the
// draws spread to their lanes, packed codes straight into the wire buffer
// — and dequantizeAVX2 (dequant_amd64.s) de-quantizes the multiple-of-8
// prefix of every row, stored or accumulated. The loops take the remaining
// 1–7 elements, every chunk the rounder declines (a NaN t, or one outside
// [0, 2^24)), and every other host.
//
// An encoder scans each row's range once: callers that send a row to
// several peers pass ranges found once (RowRanges) and the encoder does not
// scan again.
package quant

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cpu"
	"repro/internal/tensor"
)

// BitWidth is a supported quantization precision.
type BitWidth uint8

// Candidate bit-widths B = {2, 4, 8} (paper §3.2).
const (
	B2 BitWidth = 2
	B4 BitWidth = 4
	B8 BitWidth = 8
	// B32 is full precision — a passthrough marker, not a packed format.
	// The assigner never selects it and the mixed-stream kernels reject
	// it (see Packable); codecs that see it ship raw float32 rows, and
	// the size helpers account it at 4 bytes per value with no row meta.
	B32 BitWidth = 32
)

// Candidates lists the optional bit-width set B in ascending order.
var Candidates = []BitWidth{B2, B4, B8}

// Valid reports whether b is one of the supported widths (including the
// 32-bit passthrough).
func (b BitWidth) Valid() bool { return b == B2 || b == B4 || b == B8 || b == B32 }

// Packable reports whether b can be packed into a quantized wire stream
// (everything Valid except the full-precision passthrough).
func (b BitWidth) Packable() bool { return b == B2 || b == B4 || b == B8 }

// Levels returns 2^b − 1, the number of quantization steps.
func (b BitWidth) Levels() uint32 { return (1 << b) - 1 }

// PackedSize returns the number of bytes needed for n codes at width b
// (raw float32 bytes for the B32 passthrough).
func (b BitWidth) PackedSize(n int) int {
	if b == B32 {
		return 4 * n
	}
	return (n*int(b) + 7) / 8
}

// RowMeta carries the per-row affine parameters needed to de-quantize.
type RowMeta struct {
	Zero  float32 // Z = min(h)
	Scale float32 // S = (max−min)/(2^b−1)
}

// headerBytes is the wire size of one RowMeta (two float32).
const headerBytes = 8

// WireSize returns the exact number of bytes QuantizeRows produces for
// rows rows of dim columns at width b. B32 is the raw full-precision row
// size (4 bytes per value, no per-row meta).
func WireSize(rows, dim int, b BitWidth) int {
	if b == B32 {
		return rows * 4 * dim
	}
	return rows * (headerBytes + b.PackedSize(dim))
}

// RowRange is one row's value range — exactly what tensor.MinMax returns
// for it. Callers that send the same row to several peers scan it once
// (RowRanges) and hand the result to every encoder.
type RowRange struct{ Min, Max float32 }

func rangeOf(h []float32) RowRange {
	mn, mx := tensor.MinMax(h)
	return RowRange{mn, mx}
}

// RowRanges scans rows idx of x once each and stores their ranges in
// dst[row]; dst needs len ≥ x.Rows and entries of rows not listed are left
// untouched.
func RowRanges(dst []RowRange, x *tensor.Matrix, idx []int32) {
	for _, r := range idx {
		dst[r] = rangeOf(x.Row(int(r)))
	}
}

// gen is the stochastic-rounding generator held by value: an Append* call
// loads the caller's xoshiro256** state once, every row kernel runs it from
// locals, and the call stores it back at the end. The stream is exactly
// tensor.RNG's, so interleaving with other users of the same RNG is
// unchanged. It also carries the vector rounder's scratch, so that is
// cleared once per call, not once per chunk.
type gen struct {
	s [4]uint64

	draws [codeChunk]uint64 // roundAVX2's scratch: a chunk's states, then its draws
}

func loadGen(rng *tensor.RNG) gen {
	return gen{s: rng.State().S}
}

func (g *gen) store(rng *tensor.RNG) {
	st := rng.State()
	st.S = g.s
	rng.SetState(st)
}

// QuantizeRow quantizes one float32 vector into codes at width b, writing
// packed bytes to dst (len ≥ PackedSize(len(h))) and returning the row
// meta. rng supplies stochastic-rounding randomness.
//
// Codes are packed LSB-first: value i occupies bits [i*b, (i+1)*b) of the
// stream. Every byte of dst[:PackedSize(len(h))] is overwritten, so dst may
// hold stale data (e.g. a pooled buffer).
//
// Determinism contract: with t = (h[i]−min)·(1/scale), element i consumes
// exactly one rng.Float32 draw unless t ≤ 0 (elements equal to the row
// minimum, and every element of a constant row, draw nothing); draws happen
// in element order. Fixed-seed losses and golden frames depend on it.
func QuantizeRow(h []float32, b BitWidth, dst []byte, rng *tensor.RNG) RowMeta {
	g := loadGen(rng)
	meta := quantizeRow(h, rangeOf(h), b, dst, &g)
	g.store(rng)
	return meta
}

// quantizeRow is the single-pass row kernel behind every encoder: rg is
// the row's precomputed range and g the generator state, advanced in place.
// Elements are rounded and packed a chunk at a time, the generator in
// registers.
func quantizeRow(h []float32, rg RowRange, b BitWidth, dst []byte, g *gen) RowMeta {
	mn := rg.Min
	scale := (rg.Max - mn) / float32(b.Levels())
	meta := RowMeta{Zero: mn, Scale: scale}
	dst = dst[:b.PackedSize(len(h))]
	if scale == 0 {
		// Constant row: all codes zero; de-quantization returns Zero.
		clear(dst)
		return meta
	}
	inv := 1 / scale
	// round floors by truncation, which is the floor while t < 2^32. t
	// exceeds the level count by rounding error at most — unless the range
	// is so small that 1/scale overflowed: then every t is +Inf or NaN, its
	// fraction is NaN, and nothing may round up.
	var roundUp uint32
	if inv <= math.MaxFloat32 {
		roundUp = 1
	}
	for len(h) > 0 {
		n := min(codeChunk, len(h))
		packed := b.PackedSize(n)
		g.round(dst[:packed], h[:n], mn, inv, b, roundUp)
		h, dst = h[n:], dst[packed:]
	}
	return meta
}

// codeChunk is how many elements are rounded at a time; a multiple of every
// width's codes-per-byte, so only a row's last chunk ends mid-byte.
const codeChunk = 64

// round stochastically rounds (h[i]-mn)*inv to a code in [0, 2^b-1] for
// every element of a chunk, one generator step per element that draws, and
// packs the codes into dst at width b. The longest multiple-of-8 prefix goes
// through the vector kernel when it can take it, straight into dst — eight
// codes are a whole number of bytes at every width; the rest, or everything,
// is rounded by the scalar kernel into one code per byte and packed from
// there. Both draw for the same elements in the same order.
func (g *gen) round(dst []byte, h []float32, mn, inv float32, b BitWidth, roundUp uint32) {
	if n8 := len(h) &^ 7; cpu.Vector(len(h)) &&
		roundAVX2(dst[:n8*int(b)/8], h[:n8], mn, inv, int(b), &g.s, &g.draws) {
		dst, h = dst[n8*int(b)/8:], h[n8:]
		if len(h) == 0 {
			return
		}
	}
	var codes [codeChunk]uint8 // zeros past len(h) pad the last byte
	g.roundScalar(codes[:len(h)], h, mn, inv, b.Levels(), roundUp)
	pack(dst, codes[:], b)
}

// roundScalar rounds one element at a time to one code per byte: the
// portable kernel, and the one every input the vector kernel declines falls
// back to.
func (g *gen) roundScalar(codes []uint8, h []float32, mn, inv float32, maxCode, roundUp uint32) {
	s0, s1, s2, s3 := g.s[0], g.s[1], g.s[2], g.s[3]
	codes = codes[:len(h)]
	for i, v := range h {
		t := (v - mn) * inv
		var code uint32
		if !(t <= 0) { // NaN draws too
			// One xoshiro256** step — tensor.RNG.Float32, inlined.
			r := bits.RotateLeft64(s1*5, 7) * 9
			x := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= x
			s3 = bits.RotateLeft64(s3, 45)
			u := float32(r>>40) / (1 << 24)

			c := uint32(t) // ⌊t⌋
			var up uint32
			if u < t-float32(c) {
				up = roundUp
			}
			code = min(c+up, maxCode)
		}
		codes[i] = uint8(code)
	}
	g.s = [4]uint64{s0, s1, s2, s3}
}

// pack fills dst with one-per-byte codes packed at width b, LSB-first; codes
// holds a whole number of bytes' worth.
func pack(dst []byte, codes []uint8, b BitWidth) {
	switch b {
	case B8:
		copy(dst, codes)
	case B4:
		for k := range dst {
			c := codes[2*k : 2*k+2]
			dst[k] = c[0] | c[1]<<4
		}
	case B2:
		for k := range dst {
			c := codes[4*k : 4*k+4]
			dst[k] = c[0] | c[1]<<2 | c[2]<<4 | c[3]<<6
		}
	default:
		panic(fmt.Sprintf("quant: cannot pack width %d", b))
	}
}

// DequantizeRow recovers len(out) float32 values from packed codes
// (mirror of QuantizeRow's layout): out[i] = float32(code)*Scale + Zero,
// the multiply rounded before the add.
func DequantizeRow(src []byte, meta RowMeta, b BitWidth, out []float32) {
	dequantizeRow(src, meta, b, out, false)
}

// dequantizeRow is DequantizeRow, or with add set the same values added
// into out (out[i] += …) without being stored anywhere first. The longest
// multiple-of-8 prefix goes through the vector kernel on a host that has
// one; eight codes end on a byte at every width, so the rest is a row of
// its own for the Go loops.
func dequantizeRow(src []byte, meta RowMeta, b BitWidth, out []float32, add bool) {
	if !b.Packable() {
		panic(fmt.Sprintf("quant: cannot de-quantize width %d", b))
	}
	src = src[:b.PackedSize(len(out))]
	if cpu.Vector(len(out)) {
		n8 := len(out) &^ 7
		dequantizeAVX2(out[:n8], src, meta.Scale, meta.Zero, int(b), add)
		if src, out = src[n8*int(b)/8:], out[n8:]; len(out) == 0 {
			return
		}
	}
	if !add {
		dequantizeGo(src, meta, b, out)
		return
	}
	var row [codeChunk]float32
	for len(out) > 0 {
		n := min(codeChunk, len(out))
		dequantizeGo(src[:b.PackedSize(n)], meta, b, row[:n])
		for i, v := range row[:n] {
			out[i] += v
		}
		src, out = src[n*int(b)/8:], out[n:]
	}
}

// dequantizeGo is the portable store-form decoder, one loop per width. The
// 2- and 4-bit loops look codes up in a per-row table of the 4 or 16 values
// a row can take, each computed by the same float32(code)*scale+zero
// expression the 8-bit loop applies per element.
func dequantizeGo(src []byte, meta RowMeta, b BitWidth, out []float32) {
	scale, zero := meta.Scale, meta.Zero
	n := len(out)
	switch b {
	case B8:
		out = out[:len(src)]
		for i, c := range src {
			out[i] = float32(c)*scale + zero
		}
	case B4:
		var tab [16]float32
		for c := range tab {
			tab[c] = float32(c)*scale + zero
		}
		for i, c := range src[:n/2] {
			o := out[2*i : 2*i+2]
			o[0], o[1] = tab[c&15], tab[c>>4]
		}
		if n%2 != 0 {
			out[n-1] = tab[src[n/2]&15]
		}
	case B2:
		var tab [4]float32
		for c := range tab {
			tab[c] = float32(c)*scale + zero
		}
		for i, c := range src[:n/4] {
			o := out[4*i : 4*i+4]
			o[0], o[1], o[2], o[3] = tab[c&3], tab[c>>2&3], tab[c>>4&3], tab[c>>6]
		}
		for i := n &^ 3; i < n; i++ {
			out[i] = tab[src[n/4]>>(2*uint(i%4))&3]
		}
	}
}

// Grow extends dst by n bytes and returns the extended slice, reusing
// capacity when available. The added bytes are NOT zeroed — callers (the
// Append* encoders) overwrite every byte they claim, which is what lets
// pooled buffers be reused without scrubbing.
func Grow(dst []byte, n int) []byte {
	l := len(dst)
	if cap(dst)-l >= n {
		return dst[:l+n]
	}
	out := make([]byte, l+n, (l+n)*2)
	copy(out, dst)
	return out
}

// AppendQuantizedRows appends the QuantizeRows stream for the selected rows
// of x (all rows if idx is nil) to dst and returns the extended slice. The
// caller owns dst and may reuse it across calls; every appended byte is
// overwritten, so a dirty pooled buffer is a valid dst.
func AppendQuantizedRows(dst []byte, x *tensor.Matrix, idx []int32, b BitWidth, rng *tensor.RNG) []byte {
	rows := x.Rows
	if idx != nil {
		rows = len(idx)
	}
	return appendStream(dst, WireSize(rows, x.Cols, b), x, idx, rows, nil, b, nil, rng)
}

// QuantizeRows encodes the given rows of x (selected by idx; all rows if
// idx is nil) into a self-describing byte stream:
//
//	for each row: [Zero float32][Scale float32][packed codes]
//
// The stream layout is fixed given (rows, dim, b), so the receiver needs
// only those three to decode. Allocates a fresh exact-size buffer; hot
// paths should use AppendQuantizedRows with a reused buffer instead.
func QuantizeRows(x *tensor.Matrix, idx []int32, b BitWidth, rng *tensor.RNG) []byte {
	rows := x.Rows
	if idx != nil {
		rows = len(idx)
	}
	return AppendQuantizedRows(make([]byte, 0, WireSize(rows, x.Cols, b)), x, idx, b, rng)
}

// DequantizeRows decodes a stream produced by QuantizeRows into dst rows
// dstRows[i] (or rows 0..n-1 if dstRows is nil).
func DequantizeRows(stream []byte, dst *tensor.Matrix, dstRows []int32, rows int, b BitWidth) error {
	if !b.Packable() {
		return fmt.Errorf("quant: cannot de-quantize bit-width %d", b)
	}
	if want := WireSize(rows, dst.Cols, b); len(stream) != want {
		return fmt.Errorf("quant: stream is %d bytes, want %d (rows=%d dim=%d b=%d)",
			len(stream), want, rows, dst.Cols, b)
	}
	decodeStream(stream, dst, dstRows, rows, nil, b, false)
	return nil
}

// RowVarianceBound returns Theorem 1's variance bound D·S²/6 for one row at
// width b.
func RowVarianceBound(h []float32, b BitWidth) float64 {
	mn, mx := tensor.MinMax(h)
	s := float64(mx-mn) / float64(b.Levels())
	return float64(len(h)) * s * s / 6
}

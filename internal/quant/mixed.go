package quant

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Mixed-bit-width streams. The adaptive assigner gives every message (row)
// its own bit-width; to ship them in one buffer the sender groups rows by
// width, quantizes each group at its single width, and concatenates the
// groups (paper §5, "Implementation"). Both sides hold the same width
// assignment (the master assigner scatters it), so the layout
//
//	[8-bit group][4-bit group][2-bit group]
//
// with rows in wire order *within* each group is self-describing given the
// widths slice — this plays the role of the paper's "bit-retrieval index".

// MixedSize returns the exact wire size for rows whose widths are given
// (dim columns each).
func MixedSize(widths []BitWidth, dim int) int {
	n := 0
	for _, b := range widths {
		n += headerBytes + b.PackedSize(dim)
	}
	return n
}

// groupOrder fixes the concatenation order of width groups on the wire.
var groupOrder = []BitWidth{B8, B4, B2}

// AppendQuantizedMixed appends the QuantizeMixed stream to dst and returns
// the extended slice: row x[idx[i]] is encoded at width widths[i], grouped
// by width in groupOrder. idx nil means rows 0..len(widths)-1. The caller
// owns dst; every appended byte is overwritten, so a dirty pooled buffer
// is a valid dst. Rows are encoded one at a time straight into the output
// — no per-group index slices or sub-buffers are built.
func AppendQuantizedMixed(dst []byte, x *tensor.Matrix, idx []int32, widths []BitWidth, rng *tensor.RNG) ([]byte, error) {
	return AppendQuantizedMixedRanges(dst, x, idx, widths, nil, rng)
}

// AppendQuantizedMixedRanges is AppendQuantizedMixed for a caller that has
// already scanned the rows: ranges[r] must be the RowRange of x's row r
// (see RowRanges) for every encoded row, so a row sent to several peers is
// scanned once, not once per peer. ranges nil scans each row here.
func AppendQuantizedMixedRanges(dst []byte, x *tensor.Matrix, idx []int32, widths []BitWidth, ranges []RowRange, rng *tensor.RNG) ([]byte, error) {
	if idx != nil && len(idx) != len(widths) {
		return nil, fmt.Errorf("quant: %d indices but %d widths", len(idx), len(widths))
	}
	if err := checkPackable(widths); err != nil {
		return nil, err
	}
	return appendStream(dst, MixedSize(widths, x.Cols), x, idx, len(widths), widths, 0, ranges, rng), nil
}

// checkPackable rejects a mixed stream's widths before any size is computed
// from them.
func checkPackable(widths []BitWidth) error {
	for i, b := range widths {
		if !b.Packable() {
			return fmt.Errorf("quant: row %d has unpackable bit-width %d", i, b)
		}
	}
	return nil
}

// appendStream is the one loop that writes wire rows — [Zero][Scale][packed
// codes] — under every Append* encoder: n rows of x (rows idx, or 0..n-1 when
// idx is nil) into size bytes appended to dst. Row i goes at widths[i], the
// rows grouped by width in groupOrder and in wire order within a group;
// widths nil is the one-group stream with every row at b (QuantizeRows'
// layout — the same bytes as a mixed stream whose widths all equal b).
// ranges, when not nil, holds row r's range at ranges[r].
func appendStream(dst []byte, size int, x *tensor.Matrix, idx []int32, n int, widths []BitWidth, b BitWidth, ranges []RowRange, rng *tensor.RNG) []byte {
	dst = Grow(dst, size)
	out := dst[len(dst)-size:]
	groups := groupOrder
	if widths == nil {
		groups = []BitWidth{b}
	}
	g := loadGen(rng)
	for _, b := range groups {
		end := headerBytes + b.PackedSize(x.Cols)
		for i := 0; i < n; i++ {
			if widths != nil && widths[i] != b {
				continue
			}
			r := i
			if idx != nil {
				r = int(idx[i])
			}
			row := x.Row(r)
			var rg RowRange
			if ranges != nil {
				rg = ranges[r]
			} else {
				rg = rangeOf(row)
			}
			meta := quantizeRow(row, rg, b, out[headerBytes:end], &g)
			binary.LittleEndian.PutUint32(out, math.Float32bits(meta.Zero))
			binary.LittleEndian.PutUint32(out[4:], math.Float32bits(meta.Scale))
			out = out[end:]
		}
	}
	g.store(rng)
	return dst
}

// QuantizeMixed encodes row x[idx[i]] at width widths[i] for every i,
// grouped by width in groupOrder. idx nil means rows 0..len(widths)-1.
// Allocates a fresh exact-size buffer; hot paths should use
// AppendQuantizedMixed with a reused buffer instead.
func QuantizeMixed(x *tensor.Matrix, idx []int32, widths []BitWidth, rng *tensor.RNG) ([]byte, error) {
	return AppendQuantizedMixed(make([]byte, 0, MixedSize(widths, x.Cols)), x, idx, widths, rng)
}

// DequantizeMixed decodes a QuantizeMixed stream into dst rows dstRows[i]
// (or rows 0..len(widths)-1 if nil), using the same widths assignment the
// sender used.
func DequantizeMixed(stream []byte, dst *tensor.Matrix, dstRows []int32, widths []BitWidth) error {
	return dequantizeMixed(stream, dst, dstRows, widths, false)
}

// DequantizeMixedAdd is DequantizeMixed with += semantics: every decoded
// row is added into its dst row, in stream order, so rows of dst that
// several streams target accumulate (the backward scatter-add). Values go
// from the codes into the sums; no decoded row is staged anywhere.
func DequantizeMixedAdd(stream []byte, dst *tensor.Matrix, dstRows []int32, widths []BitWidth) error {
	return dequantizeMixed(stream, dst, dstRows, widths, true)
}

func dequantizeMixed(stream []byte, dst *tensor.Matrix, dstRows []int32, widths []BitWidth, add bool) error {
	if dstRows != nil && len(dstRows) != len(widths) {
		return fmt.Errorf("quant: %d dst rows but %d widths", len(dstRows), len(widths))
	}
	if err := checkPackable(widths); err != nil {
		return err
	}
	if want := MixedSize(widths, dst.Cols); len(stream) != want {
		return fmt.Errorf("quant: mixed stream is %d bytes, want %d", len(stream), want)
	}
	decodeStream(stream, dst, dstRows, len(widths), widths, 0, add)
	return nil
}

// decodeStream is the one loop that reads wire rows, the mirror of
// appendStream: the caller has checked the widths and the stream's length.
// Each row is stored into its dst row, or with add set added into it.
func decodeStream(stream []byte, dst *tensor.Matrix, dstRows []int32, n int, widths []BitWidth, b BitWidth, add bool) {
	groups := groupOrder
	if widths == nil {
		groups = []BitWidth{b}
	}
	for _, b := range groups {
		end := headerBytes + b.PackedSize(dst.Cols)
		for i := 0; i < n; i++ {
			if widths != nil && widths[i] != b {
				continue
			}
			r := i
			if dstRows != nil {
				r = int(dstRows[i])
			}
			meta := RowMeta{
				Zero:  math.Float32frombits(binary.LittleEndian.Uint32(stream)),
				Scale: math.Float32frombits(binary.LittleEndian.Uint32(stream[4:])),
			}
			dequantizeRow(stream[headerBytes:end], meta, b, dst.Row(r), add)
			stream = stream[end:]
		}
	}
}

// UniformWidths returns a widths slice assigning b to all n rows.
func UniformWidths(n int, b BitWidth) []BitWidth {
	w := make([]BitWidth, n)
	for i := range w {
		w[i] = b
	}
	return w
}

// RandomWidths samples each row's width uniformly from Candidates — the
// "uniform bit-width sampling" ablation of Table 6.
func RandomWidths(n int, rng *tensor.RNG) []BitWidth {
	w := make([]BitWidth, n)
	for i := range w {
		w[i] = Candidates[rng.Intn(len(Candidates))]
	}
	return w
}

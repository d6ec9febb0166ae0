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
	for i, b := range widths {
		if !b.Packable() {
			return nil, fmt.Errorf("quant: row %d has unpackable bit-width %d", i, b)
		}
	}
	size := MixedSize(widths, x.Cols)
	dst = Grow(dst, size)
	out := dst[len(dst)-size:]
	g := loadGen(rng)
	for _, b := range groupOrder {
		for i, w := range widths {
			if w != b {
				continue
			}
			r := i
			if idx != nil {
				r = int(idx[i])
			}
			row := x.Row(r)
			if ranges != nil {
				out = appendRow(out, row, ranges[r], b, &g)
			} else {
				out = appendRow(out, row, rangeOf(row), b, &g)
			}
		}
	}
	g.store(rng)
	return dst, nil
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
	for i, b := range widths {
		if !b.Packable() {
			return fmt.Errorf("quant: row %d has unpackable bit-width %d", i, b)
		}
	}
	if want := MixedSize(widths, dst.Cols); len(stream) != want {
		return fmt.Errorf("quant: mixed stream is %d bytes, want %d", len(stream), want)
	}
	for _, b := range groupOrder {
		packed := b.PackedSize(dst.Cols)
		for i, w := range widths {
			if w != b {
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
			codes := stream[headerBytes : headerBytes+packed]
			stream = stream[headerBytes+packed:]
			dequantizeRow(codes, meta, b, dst.Row(r), add)
		}
	}
	return nil
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

package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/partition"
	"repro/internal/tensor"
)

// ---- topk: magnitude top-k sparsification ----
//
// The sparsification competitor: each row ships only its k
// largest-magnitude entries (k = ⌈density·dim⌉); the receiver zero-fills
// the rest. Stateless — every epoch's selection is independent — so the
// codec is swap-invariant under the conformance suite's instance-rebuild
// check.
//
// Wire format per destination:
//
//	[uint32 k] then per row, in wire order:
//	    k × uint32 column indices (ascending) · k × float32 values
//
// The layout is fixed given (rows, k), and the decoder validates the
// header, the stream length and every index, so corrupted wire bytes
// error instead of panicking (see FuzzCodecDecode).

// topkK returns the per-row entry budget for dim columns at density.
func topkK(dim int, density float64) int {
	k := int(math.Ceil(density * float64(dim)))
	if k < 1 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	return k
}

// topkWireSize returns the exact encodeTopK stream size.
func topkWireSize(rows, k int) int { return 4 + rows*k*8 }

// topkWorse reports whether entry a ranks below entry b in the keep
// order: smaller magnitude, or equal magnitude with the higher column
// index (ties prefer the lower index, so the selection is deterministic).
func topkWorse(absA float64, idxA int, absB float64, idxB int) bool {
	if absA != absB {
		return absA < absB
	}
	return idxA > idxB
}

// topkSelect writes into keep the k column indices of row with the
// largest magnitudes, ascending. heapIdx/heapAbs are k-sized scratch for
// the min-heap of kept entries (root = worst kept), so selection is
// O(dim·log k) with no per-row allocation.
func topkSelect(row []float32, k int, heapIdx []int, heapAbs []float64, keep []int) []int {
	n := 0
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= n {
				return
			}
			m := l
			if r := l + 1; r < n && topkWorse(heapAbs[r], heapIdx[r], heapAbs[l], heapIdx[l]) {
				m = r
			}
			if topkWorse(heapAbs[i], heapIdx[i], heapAbs[m], heapIdx[m]) {
				return
			}
			heapIdx[i], heapIdx[m] = heapIdx[m], heapIdx[i]
			heapAbs[i], heapAbs[m] = heapAbs[m], heapAbs[i]
			i = m
		}
	}
	for i, v := range row {
		a := math.Abs(float64(v))
		switch {
		case n < k:
			heapIdx[n], heapAbs[n] = i, a
			n++
			for c := n - 1; c > 0; {
				p := (c - 1) / 2
				if !topkWorse(heapAbs[c], heapIdx[c], heapAbs[p], heapIdx[p]) {
					break
				}
				heapIdx[c], heapIdx[p] = heapIdx[p], heapIdx[c]
				heapAbs[c], heapAbs[p] = heapAbs[p], heapAbs[c]
				c = p
			}
		case k > 0 && topkWorse(heapAbs[0], heapIdx[0], a, i):
			heapIdx[0], heapAbs[0] = i, a
			siftDown(0)
		}
	}
	keep = append(keep[:0], heapIdx[:n]...)
	sort.Ints(keep)
	return keep
}

// encodeTopK serializes rows idx of x keeping each row's k
// largest-magnitude entries. Ties break toward the lower column index,
// and the kept indices are written in ascending order, so the stream is
// deterministic. Allocates its own scratch; the codec hot path uses
// topkCodec.encodeRows with instance scratch and an arena buffer instead.
func encodeTopK(x *tensor.Matrix, idx []int32, k int) []byte {
	return (&topkCodec{}).encodeRows(nil, x, idx, k)
}

// encodeRows is encodeTopK with the codec's reusable selection scratch and
// an arena output buffer (every byte of which is overwritten).
func (c *topkCodec) encodeRows(a *Arena, x *tensor.Matrix, idx []int32, k int) []byte {
	if cap(c.heapIdx) < k {
		c.heapIdx = make([]int, k)
		c.heapAbs = make([]float64, k)
		c.keep = make([]int, 0, k)
	}
	heapIdx, heapAbs := c.heapIdx[:k], c.heapAbs[:k]
	sz := topkWireSize(len(idx), k)
	out := a.GetBuf(sz)[:sz]
	binary.LittleEndian.PutUint32(out, uint32(k))
	off := 4
	for _, r := range idx {
		row := x.Row(int(r))
		c.keep = topkSelect(row, k, heapIdx, heapAbs, c.keep)
		for _, col := range c.keep {
			binary.LittleEndian.PutUint32(out[off:], uint32(col))
			off += 4
		}
		for _, col := range c.keep {
			binary.LittleEndian.PutUint32(out[off:], math.Float32bits(row[col]))
			off += 4
		}
	}
	return out
}

// decodeTopK decodes an encodeTopK stream into dst rows rows[i]+rowOffset.
// add=false overwrites each row (zeroing the dropped entries); add=true
// accumulates (the backward scatter-add).
func decodeTopK(buf []byte, dst *tensor.Matrix, rows []int32, rowOffset int, add bool) error {
	if len(buf) < 4 {
		return fmt.Errorf("core: topk stream is %d bytes, want at least the 4-byte header", len(buf))
	}
	k := int(binary.LittleEndian.Uint32(buf))
	if k > dst.Cols {
		return fmt.Errorf("core: topk k=%d exceeds row dimension %d", k, dst.Cols)
	}
	// The encoder clamps k to >= 1 whenever rows carry data, so a zero in
	// the header is corruption — accepting it would silently zero every
	// received halo row.
	if k == 0 && dst.Cols > 0 && len(rows) > 0 {
		return fmt.Errorf("core: topk stream header k=0 for %d-column rows", dst.Cols)
	}
	if want := topkWireSize(len(rows), k); len(buf) != want {
		return fmt.Errorf("core: topk stream is %d bytes, want %d (rows=%d k=%d)", len(buf), want, len(rows), k)
	}
	off := 4
	for _, r := range rows {
		row := dst.Row(int(r) + rowOffset)
		if !add {
			for j := range row {
				row[j] = 0
			}
		}
		vals := off + 4*k
		for i := 0; i < k; i++ {
			col := binary.LittleEndian.Uint32(buf[off+4*i:])
			if int(col) >= dst.Cols {
				return fmt.Errorf("core: topk column index %d out of range (dim %d)", col, dst.Cols)
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(buf[vals+4*i:]))
			if add {
				row[col] += v
			} else {
				row[col] = v
			}
		}
		off += 8 * k
	}
	return nil
}

type topkCodec struct {
	density float64
	// Reusable selection scratch (not cross-epoch state: contents never
	// influence results, so the codec stays swap-invariant).
	heapIdx []int
	heapAbs []float64
	keep    []int
}

func newTopKCodec(env *CodecEnv) (MessageCodec, error) {
	return &topkCodec{density: env.Cfg.TopKDensity}, nil
}

func (c *topkCodec) Name() string { return CodecTopK }

// The codec is its own rowCoder: the wire format has no per-stage state.

func (c *topkCodec) encode(e *ExchangeEnv, _ int, x *tensor.Matrix, idx []int32) ([]byte, error) {
	return c.encodeRows(e.Scratch, x, idx, topkK(x.Cols, c.density)), nil
}

func (c *topkCodec) decode(_ *ExchangeEnv, _ int, buf []byte, dst *tensor.Matrix, idx []int32, add bool) error {
	return decodeTopK(buf, dst, idx, 0, add)
}

// passes: selection scans every candidate element and the receiver
// scatters every slot; both are charged like the quantization kernels.
func (c *topkCodec) passes() (int, int) { return 1, 1 }

func (c *topkCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	return env.stage(c, sequential, forward, l, h, xFull)
}

func (c *topkCodec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	return env.stage(c, sequential, backward, l, dxFull, dxLocal)
}

func (c *topkCodec) EpochEnd(*ExchangeEnv, int) error { return nil }

// ForwardErrorBound: a dropped entry decodes to zero, so the per-element
// error is bounded by the row's largest magnitude.
func (c *topkCodec) ForwardErrorBound(mn, mx float32, _ int) float64 {
	return math.Max(math.Abs(float64(mn)), math.Abs(float64(mx)))
}

func (c *topkCodec) ForwardWireSizes(lg *partition.LocalGraph, dim int) []int {
	k := topkK(dim, c.density)
	out := make([]int, lg.Parts)
	for q := range out {
		if n := len(lg.SendTo[q]); n > 0 {
			out[q] = topkWireSize(n, k)
		}
	}
	return out
}

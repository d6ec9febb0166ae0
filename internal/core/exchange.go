package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// Halo exchange: per GNN layer, each device ships the rows its peers need
// (lg.SendTo wire order) and fills its halo rows ([NumLocal,
// NumLocal+NumHalo) of xFull) from what arrives (lg.RecvFrom wire order).
// The reverse (backward) exchange ships gradient rows of halo slots back to
// their owners, which scatter-add them into local gradient rows.
//
// Hot-path payload buffers come from the device's Arena and are released
// by the receiver after decode; see the ownership rules on Arena.

// appendRows appends x's rows idx as little-endian float32 to dst and
// returns the extended slice. Every appended byte is overwritten, so a
// dirty pooled buffer is a valid dst.
func appendRows(dst []byte, x *tensor.Matrix, idx []int32) []byte {
	off := len(dst)
	dst = quant.Grow(dst, 4*len(idx)*x.Cols)
	for _, r := range idx {
		for _, v := range x.Row(int(r)) {
			binary.LittleEndian.PutUint32(dst[off:], math.Float32bits(v))
			off += 4
		}
	}
	return dst
}

// appendAllRows appends every row of x in order (the idx == 0..Rows-1
// special case, without materializing an index list).
func appendAllRows(dst []byte, x *tensor.Matrix) []byte {
	off := len(dst)
	dst = quant.Grow(dst, 4*len(x.Data))
	for _, v := range x.Data {
		binary.LittleEndian.PutUint32(dst[off:], math.Float32bits(v))
		off += 4
	}
	return dst
}

// rowsToBytes serializes x's rows idx as little-endian float32 into a
// fresh buffer. Hot paths use appendRows with an arena buffer instead.
func rowsToBytes(x *tensor.Matrix, idx []int32) []byte {
	return appendRows(make([]byte, 0, 4*len(idx)*x.Cols), x, idx)
}

// bytesToRows deserializes buf into dst rows rows[i]+rowOffset.
func bytesToRows(buf []byte, dst *tensor.Matrix, rows []int32, rowOffset int) error {
	if len(buf) != 4*len(rows)*dst.Cols {
		return fmt.Errorf("core: halo payload is %d bytes, want %d", len(buf), 4*len(rows)*dst.Cols)
	}
	off := 0
	for _, r := range rows {
		row := dst.Row(int(r) + rowOffset)
		for j := range row {
			row[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
	}
	return nil
}

// bytesToAllRows deserializes buf into every row of dst in order,
// overwriting all of dst (so a dirty arena matrix is a valid dst).
func bytesToAllRows(buf []byte, dst *tensor.Matrix) error {
	if len(buf) != 4*len(dst.Data) {
		return fmt.Errorf("core: halo payload is %d bytes, want %d", len(buf), 4*len(dst.Data))
	}
	for i := range dst.Data {
		dst.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return nil
}

// addBytesToRows is bytesToRows with += semantics (backward scatter-add).
func addBytesToRows(buf []byte, dst *tensor.Matrix, rows []int32) error {
	if len(buf) != 4*len(rows)*dst.Cols {
		return fmt.Errorf("core: grad payload is %d bytes, want %d", len(buf), 4*len(rows)*dst.Cols)
	}
	off := 0
	for _, r := range rows {
		row := dst.Row(int(r))
		for j := range row {
			row[j] += math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
	}
	return nil
}

// gatherRowsInto copies x's rows idx into dst's rows 0..len(idx)-1,
// overwriting all of dst (a dirty arena matrix is a valid dst).
func gatherRowsInto(dst, x *tensor.Matrix, idx []int32) {
	for i, r := range idx {
		copy(dst.Row(i), x.Row(int(r)))
	}
}

// scatterAddRows32 adds src row i into dst row idx[i].
func scatterAddRows32(dst *tensor.Matrix, idx []int32, src *tensor.Matrix) {
	for i, r := range idx {
		d := dst.Row(int(r))
		for j, v := range src.Row(i) {
			d[j] += v
		}
	}
}

// exchangeHaloFP performs the full-precision forward halo exchange
// (Vanilla), filling xFull's halo rows. When raw is true no simulated time
// is charged (evaluation sideband).
func exchangeHaloFP(env *ExchangeEnv, xLocal, xFull *tensor.Matrix, raw bool) error {
	dev, lg, a := env.Dev, env.Graph, env.Scratch
	n := dev.Size()
	payloads := a.Payloads(n)
	for q := 0; q < n; q++ {
		if q == dev.Rank() || len(lg.SendTo[q]) == 0 {
			continue
		}
		payloads[q] = appendRows(a.GetBuf(4*len(lg.SendTo[q])*xLocal.Cols), xLocal, lg.SendTo[q])
	}
	var recv [][]byte
	if raw {
		recv = dev.RawAll2All(payloads)
	} else {
		recv = dev.RingAll2All(payloads)
	}
	for p := 0; p < n; p++ {
		if p == dev.Rank() || len(lg.RecvFrom[p]) == 0 {
			continue
		}
		if err := bytesToRows(recv[p], xFull, lg.RecvFrom[p], lg.NumLocal); err != nil {
			return fmt.Errorf("rank %d from %d: %w", dev.Rank(), p, err)
		}
	}
	a.ReleaseAll(recv)
	return nil
}

// exchangeGradFP performs the full-precision backward exchange: dxFull's
// halo rows go back to their owners and are scatter-added into dxLocal.
func exchangeGradFP(env *ExchangeEnv, dxFull, dxLocal *tensor.Matrix) error {
	dev, lg, a := env.Dev, env.Graph, env.Scratch
	n := dev.Size()
	payloads := a.Payloads(n)
	for p := 0; p < n; p++ {
		if p == dev.Rank() || len(lg.RecvFrom[p]) == 0 {
			continue
		}
		// Halo rows live at NumLocal+slot; reuse appendRows via the
		// shifted index list.
		idx := env.HaloIdx(p)
		payloads[p] = appendRows(a.GetBuf(4*len(idx)*dxFull.Cols), dxFull, idx)
	}
	recv := dev.RingAll2All(payloads)
	for q := 0; q < n; q++ {
		if q == dev.Rank() || len(lg.SendTo[q]) == 0 {
			continue
		}
		if err := addBytesToRows(recv[q], dxLocal, lg.SendTo[q]); err != nil {
			return fmt.Errorf("rank %d grads from %d: %w", dev.Rank(), q, err)
		}
	}
	a.ReleaseAll(recv)
	return nil
}

// wireElems counts the float32 elements across the given wire lists at
// dim columns — the element count compression codecs charge to the Quant
// kernel category.
func wireElems(lists [][]int32, dim int) int {
	n := 0
	for _, l := range lists {
		n += len(l) * dim
	}
	return n
}

// messageDims returns the per-layer message dimension: layer 0 ships
// input features, deeper layers ship hidden activations.
func messageDims(cfg *Config, inDim int) []int {
	dims := make([]int, cfg.Layers)
	dims[0] = inDim
	for l := 1; l < cfg.Layers; l++ {
		dims[l] = cfg.Hidden
	}
	return dims
}

// widthTable holds the current bit-width assignment on one device for one
// direction of one layer: send[q][j] is the width of the j-th wire slot to
// device q; recv[p][j] mirrors the sender's table so streams decode.
type widthTable struct {
	send [][]quant.BitWidth
	recv [][]quant.BitWidth
}

func newWidthTable(lg *partition.LocalGraph, fwd bool, def quant.BitWidth) *widthTable {
	n := lg.Parts
	wt := &widthTable{send: make([][]quant.BitWidth, n), recv: make([][]quant.BitWidth, n)}
	for d := 0; d < n; d++ {
		var sendLen, recvLen int
		if fwd {
			sendLen, recvLen = len(lg.SendTo[d]), len(lg.RecvFrom[d])
		} else {
			// Backward reverses direction: we send grads for slots we
			// receive in forward, and receive grads for rows we send.
			sendLen, recvLen = len(lg.RecvFrom[d]), len(lg.SendTo[d])
		}
		wt.send[d] = quant.UniformWidths(sendLen, def)
		wt.recv[d] = quant.UniformWidths(recvLen, def)
	}
	return wt
}

// quantElems returns how many float32 elements this device quantizes when
// sending with table wt at dim columns (for the Quant time charge).
func quantSendElems(wt *widthTable, dim int) int {
	n := 0
	for _, ws := range wt.send {
		n += len(ws) * dim
	}
	return n
}

func quantRecvElems(wt *widthTable, dim int) int {
	n := 0
	for _, ws := range wt.recv {
		n += len(ws) * dim
	}
	return n
}

// exchangeHaloQ performs the quantized forward halo exchange with per-slot
// widths. ranges holds the range of every sent row of xLocal
// (env.sendRanges), so a row bound for several peers is scanned once.
// Charges Quant for the quantize/de-quantize kernels; Comm is charged
// inside RingAll2All. Returns the Comm seconds this call added (used by the
// overlap schedule).
func exchangeHaloQ(env *ExchangeEnv, wt *widthTable,
	xLocal, xFull *tensor.Matrix, ranges []quant.RowRange) (timing.Seconds, error) {
	dev, lg, a := env.Dev, env.Graph, env.Scratch
	n := dev.Size()
	model := dev.Model()
	dev.Clock().Advance(timing.Quant, model.QuantTime(quantSendElems(wt, xLocal.Cols)))
	payloads := a.Payloads(n)
	for q := 0; q < n; q++ {
		if q == dev.Rank() || len(lg.SendTo[q]) == 0 {
			continue
		}
		buf, err := quant.AppendQuantizedMixedRanges(
			a.GetBuf(quant.MixedSize(wt.send[q], xLocal.Cols)),
			xLocal, lg.SendTo[q], wt.send[q], ranges, dev.Rand())
		if err != nil {
			return 0, err
		}
		payloads[q] = buf
	}
	before := dev.Clock().Spent(timing.Comm)
	recv := dev.RingAll2All(payloads)
	commDelta := dev.Clock().Spent(timing.Comm) - before
	for p := 0; p < n; p++ {
		if p == dev.Rank() || len(lg.RecvFrom[p]) == 0 {
			continue
		}
		if err := quant.DequantizeMixed(recv[p], xFull, env.HaloIdx(p), wt.recv[p]); err != nil {
			return 0, fmt.Errorf("rank %d from %d: %w", dev.Rank(), p, err)
		}
	}
	a.ReleaseAll(recv)
	dev.Clock().Advance(timing.Quant, model.QuantTime(quantRecvElems(wt, xFull.Cols)))
	return commDelta, nil
}

// exchangeGradQ performs the quantized backward exchange (embedding
// gradients / "errors"). wt is the backward width table: send[p] covers
// slots RecvFrom[p], recv[q] covers rows SendTo[q]; ranges holds the range
// of every halo row of dxFull (env.haloRanges).
func exchangeGradQ(env *ExchangeEnv, wt *widthTable,
	dxFull, dxLocal *tensor.Matrix, ranges []quant.RowRange) (timing.Seconds, error) {
	dev, lg, a := env.Dev, env.Graph, env.Scratch
	n := dev.Size()
	model := dev.Model()
	dev.Clock().Advance(timing.Quant, model.QuantTime(quantSendElems(wt, dxFull.Cols)))
	payloads := a.Payloads(n)
	for p := 0; p < n; p++ {
		if p == dev.Rank() || len(lg.RecvFrom[p]) == 0 {
			continue
		}
		buf, err := quant.AppendQuantizedMixedRanges(
			a.GetBuf(quant.MixedSize(wt.send[p], dxFull.Cols)),
			dxFull, env.HaloIdx(p), wt.send[p], ranges, dev.Rand())
		if err != nil {
			return 0, err
		}
		payloads[p] = buf
	}
	before := dev.Clock().Spent(timing.Comm)
	recv := dev.RingAll2All(payloads)
	commDelta := dev.Clock().Spent(timing.Comm) - before
	// Several peers may target the same local row, so gradients are added,
	// not stored: each row is decoded into one row of scratch and added
	// into dxLocal from there, peers in rank order.
	row := a.GetMat(1, dxLocal.Cols)
	for q := 0; q < n; q++ {
		if q == dev.Rank() || len(lg.SendTo[q]) == 0 {
			continue
		}
		if err := quant.DequantizeMixedAdd(recv[q], dxLocal, lg.SendTo[q], wt.recv[q], row.Data); err != nil {
			return 0, fmt.Errorf("rank %d grads from %d: %w", dev.Rank(), q, err)
		}
	}
	a.PutMat(row)
	a.ReleaseAll(recv)
	dev.Clock().Advance(timing.Quant, model.QuantTime(quantRecvElems(wt, dxLocal.Cols)))
	return commDelta, nil
}

// fpAll2AllBytes returns the per-destination payload sizes of a
// full-precision forward exchange (for PipeGCN's overlap accounting and
// Table 1/Fig. 2 measurements).
func fpAll2AllBytes(lg *partition.LocalGraph, dim int) []int {
	out := make([]int, lg.Parts)
	for q := range out {
		out[q] = 4 * dim * len(lg.SendTo[q])
	}
	return out
}

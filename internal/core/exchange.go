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

// direction is which way a layer's messages travel. The paper calls
// features, embeddings and embedding gradients alike "messages"; what tells
// them apart here is the direction, and (layer, direction, peer) is the one
// key of the message path: width tables, traces and stage costs are all
// indexed by it, and every rule is written once for both values.
type direction uint8

const (
	forward  direction = iota // embeddings of local rows, to the peers whose halo they fill
	backward                  // gradients of halo rows, back to the rows' owners
)

// directions lists both, in the order the assignment sideband ships them.
var directions = [2]direction{forward, backward}

// firstLayer is the lowest layer with an exchange in direction d. Layer 0
// has no backward exchange: nothing upstream of the input features needs
// their gradient. Width tables, traces and the assigner's problems exist for
// (layer, d) with l >= d.firstLayer() and for no other pair.
func (d direction) firstLayer() int { return int(d) }

// sent returns, per peer, the wire list of what a device sends in direction
// d: its local rows the peer needs (SendTo) forward, the halo slots the peer
// owns (RecvFrom) backward.
func (d direction) sent(lg *partition.LocalGraph) [][]int32 {
	if d == forward {
		return lg.SendTo
	}
	return lg.RecvFrom
}

// filled returns, per peer, the wire list of what arrives in direction d —
// what that peer sent: halo slots are stored forward, local rows accumulate
// backward.
func (d direction) filled(lg *partition.LocalGraph) [][]int32 {
	return (d ^ 1).sent(lg)
}

// The fp32 wire format: a float payload is its values' IEEE-754 bit
// patterns, little-endian, back to back. appendF32s/readF32s and their
// float64 twins are its only writer and reader; every caller checks a
// payload's length before it reads one.

// appendF32s appends v to dst and returns the extended slice. Every
// appended byte is overwritten, so a dirty pooled buffer is a valid dst.
func appendF32s(dst []byte, v []float32) []byte {
	off := len(dst)
	dst = quant.Grow(dst, 4*len(v))
	for _, x := range v {
		binary.LittleEndian.PutUint32(dst[off:], math.Float32bits(x))
		off += 4
	}
	return dst
}

// readF32s stores the first len(dst) values of b into dst — added to what
// dst holds when add is set — and returns the rest of b.
func readF32s(dst []float32, b []byte, add bool) []byte {
	if add {
		for i := range dst {
			dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
	} else {
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
	return b[4*len(dst):]
}

// appendF64s is appendF32s for float64 values.
func appendF64s(dst []byte, v []float64) []byte {
	off := len(dst)
	dst = quant.Grow(dst, 8*len(v))
	for _, x := range v {
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(x))
		off += 8
	}
	return dst
}

// readF64s is readF32s for float64 values.
func readF64s(dst []float64, b []byte, add bool) []byte {
	if add {
		for i := range dst {
			dst[i] += math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	} else {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return b[8*len(dst):]
}

// appendRows appends x's rows idx to dst in the fp32 wire format.
func appendRows(dst []byte, x *tensor.Matrix, idx []int32) []byte {
	for _, r := range idx {
		dst = appendF32s(dst, x.Row(int(r)))
	}
	return dst
}

// readRows lands an appendRows payload in dst's rows idx: stored, or added
// to them when add is set (several peers may target the same row).
func readRows(buf []byte, dst *tensor.Matrix, idx []int32, add bool) error {
	if len(buf) != 4*len(idx)*dst.Cols {
		return fmt.Errorf("core: row payload is %d bytes, want %d", len(buf), 4*len(idx)*dst.Cols)
	}
	for _, r := range idx {
		buf = readF32s(dst.Row(int(r)), buf, add)
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

// A rowCoder is one wire format for the rows one peer needs: the only part
// of a halo exchange that differs between codecs. Implementations are
// zero-size or live in a field of their codec instance and are passed by
// pointer, so handing one to exchange never allocates.
type rowCoder interface {
	// encode serializes rows idx of x for peer into an arena buffer whose
	// ownership passes to the transport.
	encode(e *ExchangeEnv, peer int, x *tensor.Matrix, idx []int32) ([]byte, error)
	// decode lands peer's payload in dst rows idx: stored when add is false
	// (forward halo fill), accumulated when true (backward scatter-add —
	// several peers may target the same local row).
	decode(e *ExchangeEnv, peer int, buf []byte, dst *tensor.Matrix, idx []int32, add bool) error
	// passes returns how many kernel scans per wire element the send and
	// receive sides charge to timing.Quant (0 = none).
	passes() (send, recv int)
}

// fpCoder ships raw little-endian float32 rows (fp32, PipeGCN, the
// quantizing codecs' full-precision epochs, evaluation).
type fpCoder struct{}

func (fpCoder) encode(e *ExchangeEnv, _ int, x *tensor.Matrix, idx []int32) ([]byte, error) {
	return appendRows(e.Scratch.GetBuf(4*len(idx)*x.Cols), x, idx), nil
}

func (fpCoder) decode(_ *ExchangeEnv, _ int, buf []byte, dst *tensor.Matrix, idx []int32, add bool) error {
	return readRows(buf, dst, idx, add)
}

func (fpCoder) passes() (int, int) { return 0, 0 }

// wireRows returns the rows of the matrix sent in direction dir that go to
// peer p: dir.sent's list, with halo slots shifted past the local block
// (HaloIdx). The rows filled from p are wireRows(dir^1, p).
func (e *ExchangeEnv) wireRows(dir direction, p int) []int32 {
	if dir == forward {
		return e.Graph.SendTo[p]
	}
	return e.HaloIdx(p)
}

// exchange is the one halo exchange: encode each peer's rows of src, ring
// all2all, decode what arrives into dst (peers in rank order) and release
// the received buffers. Forward ships SendTo rows of the local block and
// fills dst's halo rows; backward ships src's halo-gradient rows back to
// their owners, who add them into their local rows. raw moves the bytes
// over the uncharged sideband (evaluation).
func (e *ExchangeEnv) exchange(c rowCoder, dir direction, raw bool, src, dst *tensor.Matrix) error {
	dev, a := e.Dev, e.Scratch
	n := dev.Size()
	payloads := a.Payloads(n)
	for p := 0; p < n; p++ {
		idx := e.wireRows(dir, p)
		if p == dev.Rank() || len(idx) == 0 {
			continue
		}
		buf, err := c.encode(e, p, src, idx)
		if err != nil {
			return err
		}
		payloads[p] = buf
	}
	var recv [][]byte
	if raw {
		recv = dev.RawAll2All(payloads)
	} else {
		recv = dev.RingAll2All(payloads)
	}
	for p := 0; p < n; p++ {
		idx := e.wireRows(dir^1, p)
		if p == dev.Rank() || len(idx) == 0 {
			continue
		}
		if err := c.decode(e, p, recv[p], dst, idx, dir == backward); err != nil {
			return fmt.Errorf("rank %d from %d: %w", dev.Rank(), p, err)
		}
	}
	a.ReleaseAll(recv)
	return nil
}

// schedule names how a layer stage's compute interleaves with its
// messages. Each codec picks one in code; it is not a user option.
type schedule int

const (
	// sequential: nothing hides. Forward computes after the halo arrives,
	// backward computes before the gradients leave.
	sequential schedule = iota
	// overlapped is AdaQP's Fig. 7: central-graph compute runs while the
	// marginal-graph messages are in flight; marginal compute needs them
	// (forward) or produces them (backward) and stays serial.
	overlapped
	// pipelined is PipeGCN: the messages are consumed next epoch, so the
	// whole stage's compute runs while they are in flight.
	pipelined
)

// stage runs one layer stage's exchange and charges its simulated time
// under sched: backward serial compute, send-side kernels, the exchange
// (Idle/Comm inside the collective), receive-side kernels, the compute
// the messages failed to hide, forward serial compute. It is the only
// place compute hides behind Comm, and Predict charges through it too.
func (e *ExchangeEnv) stage(c rowCoder, sched schedule, dir direction, l int, src, dst *tensor.Matrix) error {
	clock, model, costs := e.Dev.Clock(), e.Dev.Model(), e.costs[l][dir]
	serial, hidden := costs.Total, timing.Seconds(0)
	switch sched {
	case overlapped:
		serial, hidden = costs.Marginal, costs.Central
	case pipelined:
		serial, hidden = 0, costs.Total
	}
	if dir == backward {
		clock.Advance(timing.Comp, serial)
	}
	sendPasses, recvPasses := c.passes()
	if sendPasses > 0 {
		clock.Advance(timing.Quant, model.QuantTime(sendPasses*wireElems(dir.sent(e.Graph), src.Cols)))
	}
	before := clock.Spent(timing.Comm)
	if err := e.exchange(c, dir, false, src, dst); err != nil {
		return err
	}
	comm := clock.Spent(timing.Comm) - before
	if recvPasses > 0 {
		clock.Advance(timing.Quant, model.QuantTime(recvPasses*wireElems(dir.filled(e.Graph), dst.Cols)))
	}
	// Hidden compute ran concurrently with the messages: only what outlasts
	// them advances the clock, and the concurrent seconds are recorded.
	if hidden > comm {
		clock.Advance(timing.Comp, hidden-comm)
	}
	clock.AddOverlap(min(hidden, comm))
	if dir == forward {
		clock.Advance(timing.Comp, serial)
	}
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

func newWidthTable(lg *partition.LocalGraph, dir direction, def quant.BitWidth) *widthTable {
	wt := &widthTable{send: make([][]quant.BitWidth, lg.Parts), recv: make([][]quant.BitWidth, lg.Parts)}
	for d := range wt.send {
		wt.send[d] = quant.UniformWidths(len(dir.sent(lg)[d]), def)
		wt.recv[d] = quant.UniformWidths(len(dir.filled(lg)[d]), def)
	}
	return wt
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

// PairBytesFirstLayer returns the full-precision bytes each device pair
// transfers in the first GNN layer's forward pass — Fig. 2's measurement.
func PairBytesFirstLayer(dep *Deployment) [][]int {
	out := make([][]int, len(dep.Locals))
	for src, lg := range dep.Locals {
		out[src] = fpAll2AllBytes(lg, dep.Dataset.Features.Cols)
	}
	return out
}

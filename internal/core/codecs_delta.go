package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// ---- delta: residual encoding against the previous epoch's payload ----
//
// Messages evolve smoothly between epochs, so the residual against the
// previous payload spans a much smaller range than the payload itself and
// quantizes tightly. Every DeltaKeyframeEvery epochs (including epoch 0)
// a full-precision keyframe resets the reference; in between, the codec
// ships the residual quantized at 8 bits. Sender and receiver both
// advance their reference to the *reconstruction* (reference + decoded
// residual), so the two stay bit-identical without extra traffic.
//
// Wire format per destination: a 1-byte tag ('K' keyframe / 'D' delta)
// followed by raw little-endian float32 rows (keyframe) or the
// quant.QuantizeRows stream at 8 bits (delta). Keyframe epochs are a
// pure function of the epoch number, so both ends agree on the expected
// tag and a mismatch is a decode error.

// deltaBits is the fixed width residual payloads are quantized at.
const deltaBits = quant.B8

const (
	deltaTagKeyframe = 'K'
	deltaTagDelta    = 'D'
)

// deltaKeyframe reports whether epoch ships keyframes under cfg.
func deltaKeyframe(cfg *Config, epoch int) bool {
	return epoch%cfg.DeltaKeyframeEvery == 0
}

// encodeDelta serializes rows idx of x against *prev, advancing *prev to
// the receiver-visible reconstruction. On keyframe epochs the raw rows
// are shipped and become the new reference. a may be nil (plain
// allocation); the returned payload comes from a and passes to the
// transport.
func encodeDelta(a *Arena, x *tensor.Matrix, idx []int32, prev **tensor.Matrix, key bool, rng *tensor.RNG) ([]byte, error) {
	if key {
		// Reuse the retired reference in place when the shape matches
		// (it is fully overwritten); it was never pooled, so no one else
		// can hold it.
		cur := *prev
		if cur == nil || cur.Rows != len(idx) || cur.Cols != x.Cols {
			cur = tensor.New(len(idx), x.Cols)
		}
		gatherRowsInto(cur, x, idx)
		*prev = cur
		out := append(a.GetBuf(1+4*len(cur.Data)), deltaTagKeyframe)
		return appendAllRows(out, cur), nil
	}
	d := a.GetMat(len(idx), x.Cols)
	gatherRowsInto(d, x, idx)
	if *prev == nil || !(*prev).SameShape(d) {
		return nil, fmt.Errorf("core: delta codec has no keyframe reference for a residual epoch")
	}
	d.SubInPlace(*prev)
	out := append(a.GetBuf(1+quant.WireSize(d.Rows, d.Cols, deltaBits)), deltaTagDelta)
	out = quant.AppendQuantizedRows(out, d, nil, deltaBits, rng)
	recon := a.GetMat(d.Rows, d.Cols)
	if err := quant.DequantizeRows(out[1:], recon, nil, recon.Rows, deltaBits); err != nil {
		return nil, err
	}
	(*prev).AddInPlace(recon)
	a.PutMat(recon)
	a.PutMat(d)
	return out, nil
}

// decodeDelta decodes one encodeDelta payload carrying rows×dim values,
// advancing *prev to the reconstruction and returning it. It validates
// the tag (against the epoch-derived expectation), the stream length and
// the reference state, so corrupted wire bytes error instead of
// panicking.
func decodeDelta(a *Arena, buf []byte, rows, dim int, prev **tensor.Matrix, key bool) (*tensor.Matrix, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("core: delta stream is empty (missing tag byte)")
	}
	tag, body := buf[0], buf[1:]
	switch tag {
	case deltaTagKeyframe:
		if !key {
			return nil, fmt.Errorf("core: delta keyframe payload on a residual epoch")
		}
		// Reuse the retired reference when shapes match: bytesToAllRows
		// validates the length before writing and overwrites every element.
		m := *prev
		if m == nil || m.Rows != rows || m.Cols != dim {
			m = tensor.New(rows, dim)
		}
		if err := bytesToAllRows(body, m); err != nil {
			return nil, err
		}
		*prev = m
		return m, nil
	case deltaTagDelta:
		if key {
			return nil, fmt.Errorf("core: delta residual payload on a keyframe epoch")
		}
		if *prev == nil || (*prev).Rows != rows || (*prev).Cols != dim {
			return nil, fmt.Errorf("core: delta residual without a matching keyframe reference")
		}
		d := a.GetMat(rows, dim)
		if err := quant.DequantizeRows(body, d, nil, rows, deltaBits); err != nil {
			return nil, err
		}
		(*prev).AddInPlace(d)
		a.PutMat(d)
		return *prev, nil
	}
	return nil, fmt.Errorf("core: unknown delta tag 0x%02x", tag)
}

type deltaCodec struct {
	// sendPrev[dir][l][p] is the sender-side reconstruction of the rows last
	// shipped to p at layer l in direction dir; recvPrev[dir][l][p] mirrors
	// the reference p keeps for what it shipped here.
	sendPrev, recvPrev [2][][]*tensor.Matrix
	coder              deltaCoder
}

func newDeltaCodec(env *CodecEnv) (MessageCodec, error) {
	layers, parts := env.Cfg.Layers, env.Graph().Parts
	grid := func() (g [2][][]*tensor.Matrix) {
		for dir := range g {
			g[dir] = make([][]*tensor.Matrix, layers)
			for l := range g[dir] {
				g[dir][l] = make([]*tensor.Matrix, parts)
			}
		}
		return g
	}
	return &deltaCodec{sendPrev: grid(), recvPrev: grid()}, nil
}

func (c *deltaCodec) Name() string { return CodecDelta }

// Stateful: the keyframe references are cross-epoch state on both the
// sending and receiving side.
func (c *deltaCodec) Stateful() bool { return true }

// deltaCoder is one layer direction's rowCoder for one epoch: whether the
// epoch ships keyframes, and that direction's per-peer references on the
// sending and receiving side.
type deltaCoder struct {
	key                bool
	sendPrev, recvPrev []*tensor.Matrix
}

func (d *deltaCoder) encode(e *ExchangeEnv, p int, x *tensor.Matrix, idx []int32) ([]byte, error) {
	return encodeDelta(e.Scratch, x, idx, &d.sendPrev[p], d.key, e.Dev.Rand())
}

func (d *deltaCoder) decode(e *ExchangeEnv, p int, buf []byte, dst *tensor.Matrix, idx []int32, add bool) error {
	rec, err := decodeDelta(e.Scratch, buf, len(idx), dst.Cols, &d.recvPrev[p], d.key)
	if err != nil {
		return err
	}
	if add {
		scatterAddRows32(dst, idx, rec)
		return nil
	}
	for j, r := range idx {
		copy(dst.Row(int(r)), rec.Row(j))
	}
	return nil
}

// passes: residual epochs quantize and self-dequantize (to advance the
// sender's reference) every element shipped; keyframes run no kernel.
func (d *deltaCoder) passes() (int, int) {
	if d.key {
		return 0, 0
	}
	return 2, 1
}

func (c *deltaCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	return c.run(env, forward, epoch, l, h, xFull)
}

func (c *deltaCodec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	return c.run(env, backward, epoch, l, dxFull, dxLocal)
}

func (c *deltaCodec) run(env *ExchangeEnv, dir direction, epoch, l int, src, dst *tensor.Matrix) error {
	c.coder = deltaCoder{key: deltaKeyframe(env.Cfg, epoch), sendPrev: c.sendPrev[dir][l], recvPrev: c.recvPrev[dir][l]}
	return env.stage(&c.coder, sequential, dir, l, src, dst)
}

func (c *deltaCodec) EpochEnd(*ExchangeEnv, int) error { return nil }

// ForwardWireSizes: epoch 0 is always a keyframe — one tag byte plus the
// raw fp32 rows per destination.
func (c *deltaCodec) ForwardWireSizes(lg *partition.LocalGraph, dim int) []int {
	out := make([]int, lg.Parts)
	for q := range out {
		if n := len(lg.SendTo[q]); n > 0 {
			out[q] = 1 + 4*n*dim
		}
	}
	return out
}

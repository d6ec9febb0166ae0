package core

import (
	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// ---- fp32: full-precision ring all2all (Vanilla's scheme) ----

type fp32Codec struct{}

func newFP32Codec(*CodecEnv) (MessageCodec, error) { return fp32Codec{}, nil }

func (fp32Codec) Name() string { return CodecFP32 }

func (fp32Codec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	return env.stage(fpCoder{}, sequential, forward, l, h, xFull)
}

func (fp32Codec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	return env.stage(fpCoder{}, sequential, backward, l, dxFull, dxLocal)
}

func (fp32Codec) EpochEnd(*ExchangeEnv, int) error { return nil }

func (fp32Codec) ForwardWireSizes(lg *partition.LocalGraph, dim int) []int {
	return fpAll2AllBytes(lg, dim)
}

// ---- shared quantized exchange with the overlap schedule ----

// mixedCoder ships rows at per-slot bit-widths (the quant mixed-width
// stream). ranges holds the range of every row this stage sends, scanned
// once however many peers receive the row.
type mixedCoder struct {
	wt     *widthTable
	ranges []quant.RowRange
}

func (m *mixedCoder) encode(e *ExchangeEnv, p int, x *tensor.Matrix, idx []int32) ([]byte, error) {
	return quant.AppendQuantizedMixedRanges(e.Scratch.GetBuf(quant.MixedSize(m.wt.send[p], x.Cols)),
		x, idx, m.wt.send[p], m.ranges, e.Round)
}

func (m *mixedCoder) decode(e *ExchangeEnv, p int, buf []byte, dst *tensor.Matrix, idx []int32, add bool) error {
	return dequantizeMixed(buf, dst, idx, m.wt.recv[p], add)
}

// dequantizeMixed lands a mixed-width stream in dst rows idx: stored, or with
// add set added straight from the codes.
func dequantizeMixed(buf []byte, dst *tensor.Matrix, idx []int32, widths []quant.BitWidth, add bool) error {
	if add {
		return quant.DequantizeMixedAdd(buf, dst, idx, widths)
	}
	return quant.DequantizeMixed(buf, dst, idx, widths)
}

func (*mixedCoder) passes() (int, int) { return 1, 1 }

// quantCodec is the quantizing codec: per-message bit-widths from a width
// table per (layer, direction), under AdaQP's overlapped schedule. Its three
// registry names are three width policies and nothing else:
//
//   - uniform: every message at Config.UniformBits, installed once (32 bits
//     ships raw fp32 rows, overlap schedule intact);
//   - random: widths sampled uniformly from {2,4,8} per message, re-drawn
//     after every period that has a successor (Table 6's ablation);
//   - adaptive: AdaQP — the bootstrap epoch 0 ships at the uniform
//     bootstrapBits tables newAssignState installs, messages are traced on
//     it and on the last epoch of every period that has a successor, and
//     the bi-objective problem is re-solved from the traces.
//
// Both re-assigning policies move their tables on under periodEnds, so a
// period is ReassignPeriod epochs for either, and no round runs for widths
// no epoch would use.
type quantCodec struct {
	name  string         // registry name: the width policy
	bits  quant.BitWidth // uniform only: the one width
	st    *assignState   // nil for the 32-bit passthrough, which has no tables
	coder mixedCoder
}

func newQuantCodec(name string) CodecFactory {
	return func(env *CodecEnv) (MessageCodec, error) {
		c := &quantCodec{name: name}
		if name == CodecUniform {
			c.bits = env.Cfg.UniformBits
		}
		if c.bits == quant.B32 {
			return c, nil
		}
		c.st = newAssignState(env.Cfg, env.Graph(), env.InDim)
		switch name {
		case CodecUniform:
			c.st.installUniformWidths(c.bits)
		case CodecRandom:
			c.st.installRandomWidths(env.Cfg.Seed, 0, len(env.Locals), env.Rank)
		}
		return c, nil
	}
}

func (c *quantCodec) Name() string { return c.name }

// periodEnds reports whether a re-assignment period ends after epoch: the
// widths move on after every ReassignPeriod epochs, but only when an epoch
// follows to use them.
func periodEnds(cfg *Config, epoch int) bool {
	return epoch < cfg.Epochs-1 && (epoch+1)%cfg.ReassignPeriod == 0
}

// tracing reports whether epoch's messages are traced for the assigner: the
// bootstrap epoch and the last epoch of each period, each only when a later
// epoch ships at the widths solved from them.
func (c *quantCodec) tracing(cfg *Config, epoch int) bool {
	return c.name == CodecAdaptive && (periodEnds(cfg, epoch) || epoch == 0 && cfg.Epochs > 1)
}

func (c *quantCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	return c.run(env, forward, epoch, l, h, xFull)
}

func (c *quantCodec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	return c.run(env, backward, epoch, l, dxFull, dxLocal)
}

// run is one overlapped exchange of layer l in direction dir at the current
// width table; the 32-bit passthrough ships raw fp32 rows. A tracing epoch
// also feeds the scanned row ranges to the assigner's tracer.
func (c *quantCodec) run(env *ExchangeEnv, dir direction, epoch, l int, src, dst *tensor.Matrix) error {
	if c.st == nil {
		return env.stage(fpCoder{}, overlapped, dir, l, src, dst)
	}
	ranges := env.ranges(dir, src)
	if c.tracing(env.Cfg, epoch) {
		c.st.trace(env, dir, l, ranges)
	}
	c.coder = mixedCoder{wt: c.st.widths[dir][l], ranges: ranges}
	return env.stage(&c.coder, overlapped, dir, l, src, dst)
}

// EpochEnd moves the width tables on for the next period: random draws
// period (epoch+1)/ReassignPeriod's, adaptive re-solves the assignment from
// this epoch's traces.
func (c *quantCodec) EpochEnd(env *ExchangeEnv, epoch int) error {
	if c.name == CodecRandom && periodEnds(env.Cfg, epoch) {
		c.st.installRandomWidths(env.Cfg.Seed, (epoch+1)/env.Cfg.ReassignPeriod, env.Dev.Size(), env.Dev.Rank())
	}
	if c.tracing(env.Cfg, epoch) {
		return runAssignment(env.Dev, env.Cfg, c.st)
	}
	return nil
}

// ForwardErrorBound: one quantization step at the narrowest width an epoch-0
// message can get — random may sample 2 bits, adaptive ships the bootstrap
// width.
func (c *quantCodec) ForwardErrorBound(mn, mx float32, _ int) float64 {
	if c.st == nil {
		return 0
	}
	b := c.bits
	switch c.name {
	case CodecRandom:
		b = quant.B2
	case CodecAdaptive:
		b = bootstrapBits
	}
	return float64(mx-mn) / float64(b.Levels())
}

func (c *quantCodec) ForwardWireSizes(lg *partition.LocalGraph, dim int) []int {
	if c.st == nil {
		return fpAll2AllBytes(lg, dim)
	}
	out := make([]int, lg.Parts)
	for q := range out {
		out[q] = quant.MixedSize(c.st.widths[forward][0].send[q], dim)
	}
	return out
}

// ---- pipegcn: cross-iteration pipelining with 1-epoch staleness ----

type pipegcnCodec struct {
	pipeHalo []*tensor.Matrix // per layer: last received halo block
	pipeGrad []*tensor.Matrix // per layer: last received remote gradients
}

func newPipeGCNCodec(env *CodecEnv) (MessageCodec, error) {
	return &pipegcnCodec{
		pipeHalo: make([]*tensor.Matrix, env.Cfg.Layers),
		pipeGrad: make([]*tensor.Matrix, env.Cfg.Layers),
	}, nil
}

func (c *pipegcnCodec) Name() string { return CodecPipeGCN }

func (c *pipegcnCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	lg := env.Graph
	if epoch == 0 {
		if err := env.stage(fpCoder{}, sequential, forward, l, h, xFull); err != nil {
			return err
		}
		c.pipeHalo[l] = xFull.RowSlice(lg.NumLocal, xFull.Rows)
		return nil
	}
	// Use last epoch's halo block (1-epoch staleness) while the fresh
	// exchange overlaps with this epoch's computation.
	stale := c.pipeHalo[l]
	for i := 0; i < lg.NumHalo; i++ {
		copy(xFull.Row(lg.NumLocal+i), stale.Row(i))
	}
	// Receive the fresh halo into arena scratch (only its halo rows are
	// written and read), then double-buffer: the now-dead stale block
	// becomes next epoch's cache.
	fresh := env.Scratch.GetMat(xFull.Rows, xFull.Cols)
	if err := env.stage(fpCoder{}, pipelined, forward, l, h, fresh); err != nil {
		return err
	}
	for i := 0; i < lg.NumHalo; i++ {
		copy(stale.Row(i), fresh.Row(lg.NumLocal+i))
	}
	env.Scratch.PutMat(fresh)
	return nil
}

func (c *pipegcnCodec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	if epoch == 0 {
		remote := tensor.New(env.Graph.NumLocal, dxLocal.Cols)
		if err := env.stage(fpCoder{}, sequential, backward, l, dxFull, remote); err != nil {
			return err
		}
		dxLocal.AddInPlace(remote)
		c.pipeGrad[l] = remote
		return nil
	}
	// Apply last epoch's remote gradients; ship fresh ones overlapped with
	// computation. After the add the old block is dead, so re-zero it (the
	// backward exchange accumulates) and receive in place — no new matrix.
	remote := c.pipeGrad[l]
	dxLocal.AddInPlace(remote)
	remote.Zero()
	return env.stage(fpCoder{}, pipelined, backward, l, dxFull, remote)
}

func (c *pipegcnCodec) EpochEnd(*ExchangeEnv, int) error { return nil }

// ForwardWireSizes: epoch 0 performs the plain full-precision exchange.
func (c *pipegcnCodec) ForwardWireSizes(lg *partition.LocalGraph, dim int) []int {
	return fpAll2AllBytes(lg, dim)
}

// ---- sancus: staleness-bounded sequential broadcast ----

type sancusCodec struct {
	topo  *sancusTopology
	cache []*tensor.Matrix // per layer: cached halo rows
	last  []*tensor.Matrix // per layer: my boundary rows at last broadcast
	age   []int
}

func newSancusCodec(env *CodecEnv) (MessageCodec, error) {
	return &sancusCodec{
		topo:  env.Shared.sancusTopo(env.Locals),
		cache: make([]*tensor.Matrix, env.Cfg.Layers),
		last:  make([]*tensor.Matrix, env.Cfg.Layers),
		age:   make([]int, env.Cfg.Layers),
	}, nil
}

func (c *sancusCodec) Name() string { return CodecSancus }

func (c *sancusCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	overlap := env.Cfg.TransportOverlap
	if err := c.exchange(env, epoch, l, h, xFull, overlap); err != nil {
		return err
	}
	fc := env.ForwardCosts(l)
	if overlap {
		// The central share was charged inside the broadcast window by
		// exchange; only the halo-dependent marginal share remains.
		env.Dev.Clock().Advance(timing.Comp, fc.Marginal)
	} else {
		env.Dev.Clock().Advance(timing.Comp, fc.Total)
	}
	return nil
}

// Backward is communication-avoiding: historical remote embeddings are
// treated as constants, so no error messages are sent back.
func (c *sancusCodec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	env.Dev.Clock().Advance(timing.Comp, env.BackwardCosts(l).Total)
	return nil
}

func (c *sancusCodec) EpochEnd(*ExchangeEnv, int) error { return nil }

// ForwardWireSizes: at epoch 0 every device broadcasts its boundary rows
// (the union of its SendTo sets) to every peer.
func (c *sancusCodec) ForwardWireSizes(lg *partition.LocalGraph, dim int) []int {
	out := make([]int, lg.Parts)
	n := len(c.topo.boundary[lg.Part])
	if n == 0 {
		return out
	}
	for d := range out {
		if d != lg.Part {
			out[d] = 4 * dim * n
		}
	}
	return out
}

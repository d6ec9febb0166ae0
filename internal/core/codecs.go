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
	return env.stage(fpCoder{}, sequential, true, l, h, xFull)
}

func (fp32Codec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	return env.stage(fpCoder{}, sequential, false, l, dxFull, dxLocal)
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
		x, idx, m.wt.send[p], m.ranges, e.Dev.Rand())
}

func (m *mixedCoder) decode(e *ExchangeEnv, p int, buf []byte, dst *tensor.Matrix, idx []int32, add bool) error {
	if add {
		return quant.DequantizeMixedAdd(buf, dst, idx, m.wt.recv[p])
	}
	return quant.DequantizeMixed(buf, dst, idx, m.wt.recv[p])
}

func (*mixedCoder) passes() (int, int) { return 1, 1 }

// quantState embeds the width tables and runs the quantized exchanges
// under AdaQP's overlapped schedule. The three quantizing codecs differ
// only in how the tables are produced (uniform / random / adaptively
// assigned).
type quantState struct {
	st    *assignState
	coder mixedCoder
}

// forward runs the overlapped forward exchange at the current width tables,
// or at full precision when fp (AdaQP's bootstrap epoch; the 32-bit
// passthrough). trace also feeds the scanned row ranges to the assigner's
// tracer.
func (q *quantState) forward(env *ExchangeEnv, l int, h, xFull *tensor.Matrix, fp, trace bool) error {
	var ranges []quant.RowRange
	if !fp || trace {
		ranges = env.sendRanges(h)
	}
	if trace {
		q.st.traceForward(l, ranges)
	}
	if fp {
		return env.stage(fpCoder{}, overlapped, true, l, h, xFull)
	}
	q.coder = mixedCoder{wt: q.st.fwdW[l], ranges: ranges}
	return env.stage(&q.coder, overlapped, true, l, h, xFull)
}

func (q *quantState) backward(env *ExchangeEnv, l int, dxFull, dxLocal *tensor.Matrix, fp, trace bool) error {
	var ranges []quant.RowRange
	if !fp || trace {
		ranges = env.haloRanges(dxFull)
	}
	if trace {
		q.st.traceBackward(l, ranges)
	}
	if fp {
		return env.stage(fpCoder{}, overlapped, false, l, dxFull, dxLocal)
	}
	q.coder = mixedCoder{wt: q.st.bwdW[l], ranges: ranges}
	return env.stage(&q.coder, overlapped, false, l, dxFull, dxLocal)
}

// ---- uniform: every message at Config.UniformBits ----

type uniformCodec struct {
	quantState
	bits        quant.BitWidth
	passthrough bool // 32-bit: raw fp32 rows, overlap schedule intact
}

func newUniformCodec(env *CodecEnv) (MessageCodec, error) {
	c := &uniformCodec{bits: env.Cfg.UniformBits, passthrough: env.Cfg.UniformBits == quant.B32}
	if !c.passthrough {
		c.st = newAssignState(env.Cfg, env.Graph(), env.InDim)
		c.st.installUniformWidths(env.Cfg.UniformBits)
	}
	return c, nil
}

func (c *uniformCodec) Name() string { return CodecUniform }

func (c *uniformCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	return c.forward(env, l, h, xFull, c.passthrough, false)
}

func (c *uniformCodec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	return c.backward(env, l, dxFull, dxLocal, c.passthrough, false)
}

func (c *uniformCodec) EpochEnd(*ExchangeEnv, int) error { return nil }

func (c *uniformCodec) ForwardErrorBound(mn, mx float32, _ int) float64 {
	if c.passthrough {
		return 0
	}
	return float64(mx-mn) / float64(c.bits.Levels())
}

func (c *uniformCodec) ForwardWireSizes(lg *partition.LocalGraph, dim int) []int {
	if c.passthrough {
		return fpAll2AllBytes(lg, dim)
	}
	out := make([]int, lg.Parts)
	for q := range out {
		out[q] = quant.MixedSize(c.st.fwdW[0].send[q], dim)
	}
	return out
}

// ---- random: widths sampled uniformly from {2,4,8} per message ----

type randomCodec struct {
	quantState
	rank int
}

func newRandomCodec(env *CodecEnv) (MessageCodec, error) {
	c := &randomCodec{rank: env.Rank}
	c.st = newAssignState(env.Cfg, env.Graph(), env.InDim)
	c.st.installRandomWidths(env.Cfg.Seed, 0, len(env.Locals), env.Rank)
	return c, nil
}

func (c *randomCodec) Name() string { return CodecRandom }

func (c *randomCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	return c.forward(env, l, h, xFull, false, false)
}

func (c *randomCodec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	return c.backward(env, l, dxFull, dxLocal, false, false)
}

func (c *randomCodec) EpochEnd(env *ExchangeEnv, epoch int) error {
	if epoch > 0 && epoch%env.Cfg.ReassignPeriod == 0 {
		c.st.installRandomWidths(env.Cfg.Seed, epoch/env.Cfg.ReassignPeriod, env.Dev.Size(), c.rank)
	}
	return nil
}

// Stateful: the installed width tables depend on how many re-assignment
// periods have elapsed, so a rebuilt instance would rewind them.
func (c *randomCodec) Stateful() bool { return true }

// ForwardErrorBound: the sampled width can be as narrow as 2 bits.
func (c *randomCodec) ForwardErrorBound(mn, mx float32, _ int) float64 {
	return float64(mx-mn) / float64(quant.B2.Levels())
}

func (c *randomCodec) ForwardWireSizes(lg *partition.LocalGraph, dim int) []int {
	out := make([]int, lg.Parts)
	for q := range out {
		out[q] = quant.MixedSize(c.st.fwdW[0].send[q], dim)
	}
	return out
}

// ---- adaptive: AdaQP's traced, bi-objectively assigned widths ----

type adaptiveCodec struct {
	quantState
}

func newAdaptiveCodec(env *CodecEnv) (MessageCodec, error) {
	c := &adaptiveCodec{}
	c.st = newAssignState(env.Cfg, env.Graph(), env.InDim)
	return c, nil
}

func (c *adaptiveCodec) Name() string { return CodecAdaptive }

// tracingEpoch reports whether this epoch's messages are traced for the
// assigner: the bootstrap epoch 0 (run at full precision) and the last
// epoch of each re-assignment period.
func (c *adaptiveCodec) tracingEpoch(env *ExchangeEnv, epoch int) bool {
	if epoch == 0 {
		return true
	}
	return (epoch+1)%env.Cfg.ReassignPeriod == 0
}

func (c *adaptiveCodec) Forward(env *ExchangeEnv, epoch, l int, h, xFull *tensor.Matrix) error {
	// Bootstrap epoch 0: full precision while tracing (no widths assigned
	// yet), with the overlapped schedule already active.
	return c.forward(env, l, h, xFull, epoch == 0, c.tracingEpoch(env, epoch))
}

func (c *adaptiveCodec) Backward(env *ExchangeEnv, epoch, l int, dxFull, dxLocal *tensor.Matrix) error {
	return c.backward(env, l, dxFull, dxLocal, epoch == 0, c.tracingEpoch(env, epoch))
}

// EpochEnd re-solves the bi-objective assignment problem at each period
// boundary using the traces collected this epoch.
func (c *adaptiveCodec) EpochEnd(env *ExchangeEnv, epoch int) error {
	if !c.tracingEpoch(env, epoch) {
		return nil
	}
	return runAssignment(env.Dev, env.Cfg, c.st)
}

// Stateful: the solved width tables and collected traces live across
// epochs.
func (c *adaptiveCodec) Stateful() bool { return true }

// ForwardWireSizes: the epoch-0 bootstrap runs at full precision.
func (c *adaptiveCodec) ForwardWireSizes(lg *partition.LocalGraph, dim int) []int {
	return fpAll2AllBytes(lg, dim)
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
		if err := env.stage(fpCoder{}, sequential, true, l, h, xFull); err != nil {
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
	if err := env.stage(fpCoder{}, pipelined, true, l, h, fresh); err != nil {
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
		if err := env.stage(fpCoder{}, sequential, false, l, dxFull, remote); err != nil {
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
	return env.stage(fpCoder{}, pipelined, false, l, dxFull, remote)
}

func (c *pipegcnCodec) EpochEnd(*ExchangeEnv, int) error { return nil }

// Stateful: the one-epoch-stale halo and gradient caches.
func (c *pipegcnCodec) Stateful() bool { return true }

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

// Stateful: the historical embedding caches and per-layer broadcast ages.
func (c *sancusCodec) Stateful() bool { return true }

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

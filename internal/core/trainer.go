package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/partition"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// ErrCanceled is returned by a training run stopped through its context.
// Cancellation is observed between epochs: the run finishes the epoch in
// flight, agrees on the stop across all devices (so no device is left
// waiting at a collective) and returns without final evaluation.
var ErrCanceled = errors.New("core: training run canceled")

// TrainDeployed runs one full training job over an existing Deployment
// (lets experiments reuse one partitioning across codecs, as the paper's
// comparisons do) and returns the measured result. model may be nil for
// the default V100/100Gbps calibration.
//
// The run is assembled from the two pluggable seams: cfg's message codec
// (defaulting to CodecFP32) moves boundary messages, and cfg's transport
// backend (defaulting to TransportInprocess) moves bytes.
func TrainDeployed(dep *Deployment, cfg Config, model *timing.CostModel) (*metrics.RunResult, error) {
	return TrainDeployedCtx(context.Background(), dep, cfg, model)
}

// TrainDeployedCtx is TrainDeployed under a cancellation context. When ctx
// is canceled the run stops at the next epoch boundary and returns
// ErrCanceled; a non-cancellable context (context.Background()) adds no
// per-epoch overhead and leaves results bit-identical to TrainDeployed.
func TrainDeployedCtx(ctx context.Context, dep *Deployment, cfg Config, model *timing.CostModel) (*metrics.RunResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Codec = cmp.Or(cfg.Codec, CodecFP32)
	cfg.Transport = cmp.Or(cfg.Transport, TransportInprocess)
	factory, runtimeFor := cfg.codecFactory, cfg.transportFactory
	var err error
	if factory == nil {
		if factory, err = LookupCodec(cfg.Codec); err != nil {
			return nil, err
		}
	}
	if runtimeFor == nil {
		if runtimeFor, err = LookupTransport(cfg.Transport); err != nil {
			return nil, err
		}
	}

	ds := dep.Dataset
	parts := dep.Assignment.Parts
	// Fault injection wraps the runtime centrally — the backend stays
	// fault-agnostic, and both backends derive their cost model (slowed
	// straggler links) through the same path.
	plan := cfg.faultPlan
	if plan == nil && cfg.Faults.Enabled() {
		if plan, err = chaos.NewPlan(cfg.Faults, parts); err != nil {
			return nil, err
		}
	}
	var fstats *faultStats
	if plan != nil {
		fstats = &faultStats{}
		runtimeFor = faultFactory(runtimeFor, plan, fstats)
	}
	rt := runtimeFor(TransportSpec{
		Parts:   parts,
		Model:   model,
		Workers: cfg.TransportWorkers,
	})

	res := &metrics.RunResult{
		Dataset: ds.Name,
		Model:   cfg.Model.String(),
		Codec:   cfg.Codec,
		Parts:   parts,
	}
	err = rt.Run(cfg.Seed, func(dev Transport) error {
		codec, err := factory(&CodecEnv{
			Cfg:    &cfg,
			Locals: dep.Locals,
			Rank:   dev.Rank(),
			InDim:  ds.Features.Cols,
		})
		if err != nil {
			return err
		}
		shared, own := dep.static(dev.Rank())
		w := &worker{
			ctx: ctx,
			dev: dev, cfg: &cfg, res: res,
			lg:        dep.Locals[dev.Rank()],
			ld:        own.ld,
			agg0:      own.agg0,
			task:      ds.Task,
			denom:     shared.denom,
			posWeight: shared.posWeight,
			codec:     codec,
		}
		w.fault, _ = dev.(*faultDevice)
		w.model = newDeviceModel(&cfg, w.lg, ds.Features.Cols, ds.NumClasses, dev.Model())
		w.opt = nn.NewAdam(cfg.LR)
		w.env = &ExchangeEnv{Dev: dev, Graph: w.lg, Cfg: &cfg, Pool: dep.payloadPool(), Round: roundingRNG(cfg.Seed, dev.Rank()),
			costs: w.model.costs, inputRanges: own.ranges0}
		return w.run()
	})
	if err != nil {
		return nil, err
	}

	for _, c := range rt.Clocks() {
		res.PerDevice = append(res.PerDevice, metrics.FromClock(c))
	}
	res.WallClock = timing.MaxSeconds(rt.Clocks())
	for _, b := range res.PerDevice {
		if b.Assign > res.AssignTime {
			res.AssignTime = b.Assign
		}
	}
	res.BytesMoved = rt.BytesMoved()
	if plan != nil {
		retries, retryTime, crashes, recoveryTime := fstats.snapshot()
		res.Faults = metrics.FaultStats{
			Stragglers:   plan.StragglerCount(),
			Retries:      retries,
			RetryTime:    retryTime,
			Crashes:      crashes,
			RecoveryTime: recoveryTime,
		}
	}
	return res, nil
}

// worker is the per-device training state.
type worker struct {
	ctx       context.Context
	dev       Transport
	cfg       *Config
	res       *metrics.RunResult
	lg        *partition.LocalGraph
	ld        *localData     // shared with every Run on the Deployment: read only
	agg0      *tensor.Matrix // layer 0's exact aggregate, likewise (deviceStatic)
	model     *deviceModel
	opt       *nn.Adam
	task      synthetic.Task
	denom     float64
	posWeight float64

	codec MessageCodec
	env   *ExchangeEnv

	// fault is dev's fault wrapper, nil unless the run injects faults
	// (chaos_transport.go); the worker only tells it when a crash lands.
	fault *faultDevice

	// Steady-state scratch reused across epochs (shapes are static per
	// device): per-layer xFull/dxLocal blocks.
	xFull   []*tensor.Matrix
	dxLocal []*tensor.Matrix
}

func (w *worker) run() error {
	cfg := w.cfg
	// final holds the last epoch's evaluation logits: the parameters do not
	// change after that epoch's optimizer step, so the final test/val
	// scores read the same forward pass instead of repeating it.
	var final *tensor.Matrix
	finalVal := math.NaN()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if canceled, err := w.pollCancel(); err != nil || canceled {
			return cmp.Or(err, ErrCanceled)
		}
		var loss float64
		var err error
		if w.fault.crashesIn(epoch) {
			loss, err = w.crashAndRecover(epoch)
		} else {
			loss, err = w.trainEpoch(epoch)
		}
		if err != nil {
			return fmt.Errorf("rank %d epoch %d: %w", w.dev.Rank(), epoch, err)
		}
		// Codec end-of-epoch protocol (e.g. AdaQP's bit-width re-assignment
		// at period boundaries, using the traces collected this epoch).
		if err := w.codec.EpochEnd(w.env, epoch); err != nil {
			return err
		}

		valAcc := math.NaN()
		last := epoch == cfg.Epochs-1
		if cfg.EvalEvery > 0 && (epoch%cfg.EvalEvery == 0 || last) {
			logits, err := w.evalLogits()
			if err != nil {
				return err
			}
			if valAcc, err = w.score(logits, w.ld.val); err != nil {
				return err
			}
			if last {
				final, finalVal = logits, valAcc
			}
		}
		w.dev.Barrier()
		if w.dev.Rank() == 0 {
			stat := metrics.EpochStat{
				Epoch: epoch, Loss: loss, ValAcc: valAcc,
				SimTime: w.dev.Clock().Now(),
			}
			w.res.Epochs = append(w.res.Epochs, stat)
			if cfg.EpochHook != nil {
				cfg.EpochHook(stat)
			}
		}
	}
	// Final metrics.
	if final == nil {
		var err error
		if final, err = w.evalLogits(); err != nil {
			return err
		}
		if finalVal, err = w.score(final, w.ld.val); err != nil {
			return err
		}
	}
	test, err := w.score(final, w.ld.test)
	if err != nil {
		return err
	}
	if w.dev.Rank() == 0 {
		w.res.FinalTest = test
		w.res.FinalVal = finalVal
	}
	return nil
}

// crashAndRecover runs the epoch in which the plan's device crashes. The
// simulated crash destroys no state in the process, so the epoch runs once
// — its loss, gradients, bytes and transient failures are the fault-free
// run's — and the clocks then pay for what a real crash costs: the attempt
// it destroyed, the restart downtime and the restart rendezvous
// (faultDevice.restart).
func (w *worker) crashAndRecover(epoch int) (float64, error) {
	before := w.dev.Clock().Breakdown()
	loss, err := w.trainEpoch(epoch)
	if err == nil {
		w.fault.restart(before)
	}
	return loss, err
}

// trainEpoch runs one synchronous training epoch and returns the global
// training loss.
func (w *worker) trainEpoch(epoch int) (float64, error) {
	w.model.zeroGrads()
	logits, err := w.forward(epoch, true) // over the loss's rows
	if err != nil {
		return 0, err
	}
	var loss float64
	var dlogits *tensor.Matrix
	if w.task == synthetic.SingleLabel {
		loss, dlogits = nn.SoftmaxCrossEntropyScaled(logits, w.ld.lossLabels, w.ld.lossMask, w.denom)
	} else {
		loss, dlogits = nn.SigmoidBCEWeighted(logits, w.ld.lossY, w.ld.lossMask, w.denom, w.posWeight)
	}
	if err := w.backward(epoch, dlogits); err != nil {
		return 0, err
	}
	// Model-gradient synchronization. The paper calls it small next to the
	// messages (§1 fn. 1); under the default latency it is latency-bound,
	// charged as the cheapest textbook schedule — on halo-reddit's 8 parts
	// 3.6 ms of AdaQP's ≈ 58 ms simulated epoch (≈ 6 %; 21 % as a ring).
	w.dev.AllReduceSum(w.model.gradients())
	w.opt.Step(w.model.params())
	sum, err := w.sumAcross(loss)
	if err != nil {
		return 0, err
	}
	return sum[0], nil
}

// forward runs the layer loop. For train=true the codec's halo exchange
// and timing schedule applies, and the logits are the loss's rows' only
// (ld.lossRows). Evaluation is full precision, uncharged and over every
// local row: layer 0 is the dense part over the Deployment's exact
// aggregate of the input features (agg0), which no Run can change, and
// every later layer fills its halo rows through the raw exchange.
func (w *worker) forward(epoch int, train bool) (*tensor.Matrix, error) {
	cfg := w.cfg
	h := w.ld.x
	if w.xFull == nil {
		w.xFull = make([]*tensor.Matrix, cfg.Layers)
		for l := 0; l < cfg.Layers; l++ {
			w.xFull[l] = tensor.New(w.lg.NumLocal+w.lg.NumHalo, w.model.layers[l].inDim)
		}
		// Layer 0's local rows are the device's features: they never
		// change and exchanges write halo rows only, so they are copied
		// here once rather than on every pass.
		copy(w.xFull[0].Data, h.Data)
	}
	for l := 0; l < cfg.Layers; l++ {
		lay := w.model.layers[l]
		if !train && l == 0 {
			h = lay.dense(h, lay.every, w.agg0, w.dev.Rand(), false)
			continue
		}
		// Per-layer scratch: above layer 0 the local rows are re-copied,
		// and every halo row is rewritten by the exchange, so reuse across
		// epochs (and between train and eval passes) is safe.
		xFull := w.xFull[l]
		if l > 0 {
			copy(xFull.Data, h.Data)
		}
		if !train {
			if err := w.env.exchange(fpCoder{}, forward, true, h, xFull); err != nil {
				return nil, err
			}
			h = lay.forward(w.lg, xFull, w.dev.Rand(), false)
			continue
		}
		if err := w.codec.Forward(w.env, epoch, l, h, xFull); err != nil {
			return nil, err
		}
		rows := lay.every
		if lay.last {
			rows = w.ld.lossRows
		}
		h = lay.forwardRows(w.lg, xFull, rows, w.dev.Rand(), true)
	}
	return h, nil
}

// backward runs the reverse layer loop with the codec's gradient exchange.
func (w *worker) backward(epoch int, dlogits *tensor.Matrix) error {
	cfg := w.cfg
	d := dlogits
	for l := cfg.Layers - 1; l >= 0; l-- {
		lay := w.model.layers[l]
		dxFull := lay.backward(w.lg, d)
		if l == 0 {
			// Layer 0 has no backward exchange on any codec.
			w.dev.Clock().Advance(timing.Comp, w.model.costs[l][backward].Total)
			return nil
		}
		if w.dxLocal == nil {
			w.dxLocal = make([]*tensor.Matrix, cfg.Layers)
		}
		if w.dxLocal[l] == nil {
			w.dxLocal[l] = tensor.New(w.lg.NumLocal, dxFull.Cols)
		}
		dxLocal := w.dxLocal[l]
		for i := 0; i < w.lg.NumLocal; i++ {
			copy(dxLocal.Row(i), dxFull.Row(i))
		}
		if err := w.codec.Backward(w.env, epoch, l, dxFull, dxLocal); err != nil {
			return err
		}
		d = dxLocal
	}
	return nil
}

// pollCancel agrees across all devices whether the run's context has been
// canceled. Cancellation arrives asynchronously, so devices may observe it
// at different times; every device shares its local observation (a 0 or 1
// flag) over the metrics sideband and a positive sum cancels, guaranteeing
// either all devices stop at this epoch boundary or none do (a device
// stopping alone would leave the others deadlocked at the next
// collective). Runs under a non-cancellable context skip the exchange
// entirely.
func (w *worker) pollCancel() (bool, error) {
	if w.ctx == nil || w.ctx.Done() == nil {
		return false, nil
	}
	flag := 0.0
	if w.ctx.Err() != nil {
		flag = 1
	}
	sum, err := w.sumAcross(flag)
	return err == nil && sum[0] > 0, err
}

// sumAcross sums vals element-wise across devices over the metrics
// sideband, in rank order from zero, so every device holds the same bits.
// A peer payload of the wrong length fails the run instead of being read.
func (w *worker) sumAcross(vals ...float64) ([]float64, error) {
	want := 8 * len(vals)
	sum := make([]float64, len(vals))
	for p, b := range w.dev.RawAllGather(appendF64s(make([]byte, 0, want), vals)) {
		if len(b) != want {
			return nil, fmt.Errorf("rank %d: sideband payload from rank %d is %d bytes, want %d", w.dev.Rank(), p, len(b), want)
		}
		readF64s(sum, b, true)
	}
	return sum, nil
}

// evalLogits runs the evaluation forward pass: full precision, no dropout,
// no RNG draws, uncharged, with a raw halo exchange at every layer but the
// first (see forward).
func (w *worker) evalLogits() (*tensor.Matrix, error) {
	return w.forward(-1, false)
}

// score computes accuracy (single-label) or micro-F1 (multi-label) of
// logits over the masked local rows, aggregated globally. Uncharged
// (metrics sideband).
func (w *worker) score(logits *tensor.Matrix, mask []bool) (float64, error) {
	var counts [3]float64
	if w.task == synthetic.SingleLabel {
		for i := 0; i < logits.Rows; i++ {
			if !mask[i] {
				continue
			}
			counts[1]++
			if logits.ArgMaxRow(i) == w.ld.labels[i] {
				counts[0]++
			}
		}
	} else {
		for i := 0; i < logits.Rows; i++ {
			if !mask[i] {
				continue
			}
			lrow := logits.Row(i)
			trow := w.ld.y.Row(i)
			for j, z := range lrow {
				pred, actual := z > 0, trow[j] > 0.5
				switch {
				case pred && actual:
					counts[0]++ // tp
				case pred && !actual:
					counts[1]++ // fp
				case !pred && actual:
					counts[2]++ // fn
				}
			}
		}
	}
	tot, err := w.sumAcross(counts[:]...)
	if err != nil {
		return 0, err
	}
	if w.task == synthetic.SingleLabel {
		if tot[1] == 0 {
			return 0, nil
		}
		return tot[0] / tot[1], nil
	}
	denom := 2*tot[0] + tot[1] + tot[2]
	if denom == 0 {
		return 0, nil
	}
	return 2 * tot[0] / denom, nil
}

package core

import (
	"cmp"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// DeviceEpoch is one device's predicted clock: the whole run's breakdown,
// as RunResult.PerDevice reports it, and the per-epoch terms behind the
// paper's §2.2 motivation (Table 2 and Fig. 3).
type DeviceEpoch struct {
	metrics.Breakdown
	// Ring is the Comm one epoch's ring all2alls charge (the same on every
	// device); Central and Marginal are one epoch's compute on central and
	// marginal rows, both directions of every layer.
	Ring, Central, Marginal timing.Seconds
}

// zeroCoder stands in for a codec's rowCoder when only the clock counts: a
// zero-filled payload of the wire size at bits per peer, nothing decoded,
// the embedded coder's kernel passes charged.
type zeroCoder struct {
	rowCoder
	bits quant.BitWidth
}

func (c *zeroCoder) encode(_ *ExchangeEnv, _ int, x *tensor.Matrix, idx []int32) ([]byte, error) {
	return make([]byte, quant.WireSize(len(idx), x.Cols, c.bits)), nil
}

func (*zeroCoder) decode(*ExchangeEnv, int, []byte, *tensor.Matrix, []int32, bool) error { return nil }

// Predict returns, without training, the per-device clocks TrainDeployed
// reports for cfg on a fault-free inprocess run of the fp32 or uniform
// codec, whose message sizes do not depend on the data. It replays the
// trainer's epoch on the collective engine with zero-filled payloads —
// every layer stage through ExchangeEnv.stage, layer 0's backward compute,
// the gradient all-reduce and the epoch barrier — so every charge comes
// from the code that charges training. model may be nil for the default
// calibration.
func Predict(dep *Deployment, cfg Config, model *timing.CostModel) ([]DeviceEpoch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Faults.Enabled() {
		return nil, fmt.Errorf("core: Predict models fault-free runs")
	}
	coder, sched := &zeroCoder{fpCoder{}, quant.B32}, sequential
	switch cmp.Or(cfg.Codec, CodecFP32) {
	case CodecFP32:
	case CodecUniform:
		coder.bits, sched = cfg.UniformBits, overlapped
		if coder.bits != quant.B32 {
			coder.rowCoder = &mixedCoder{}
		}
	default:
		return nil, fmt.Errorf("core: Predict models codecs %s and %s, not %q", CodecFP32, CodecUniform, cfg.Codec)
	}
	rt := newInprocess(TransportSpec{Parts: len(dep.Locals), Model: model})
	out := make([]DeviceEpoch, len(dep.Locals))
	if err := rt.Run(cfg.Seed, func(dev Transport) error {
		lg, o := dep.Locals[dev.Rank()], &out[dev.Rank()]
		dm := newDeviceModel(&cfg, lg, dep.Dataset.Features.Cols, dep.Dataset.NumClasses, dev.Model())
		env := &ExchangeEnv{Dev: dev, Graph: lg, Cfg: &cfg, costs: dm.costs}
		msgs := make([]*tensor.Matrix, cfg.Layers) // shapes only: a message's width
		for l, c := range dm.costs {
			msgs[l] = &tensor.Matrix{Cols: dm.layers[l].inDim}
			o.Central += c[forward].Central + c[backward].Central
			o.Marginal += c[forward].Marginal + c[backward].Marginal
		}
		clock := dev.Clock()
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for l, m := range msgs {
				if err := env.stage(coder, sched, forward, l, m, m); err != nil {
					return err
				}
			}
			for l := cfg.Layers - 1; l >= backward.firstLayer(); l-- {
				if err := env.stage(coder, sched, backward, l, msgs[l], msgs[l]); err != nil {
					return err
				}
			}
			clock.Advance(timing.Comp, dm.costs[0][backward].Total)
			if epoch == 0 {
				o.Ring = clock.Spent(timing.Comm)
			}
			dev.AllReduceSum(dm.gradients())
			dev.Barrier()
		}
		o.Breakdown = metrics.FromClock(clock)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

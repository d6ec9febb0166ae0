package core

import (
	"repro/internal/cluster"
	"repro/internal/quant"
	"repro/internal/timing"
)

// DeviceOverlap is one device's analytical per-epoch timing decomposition,
// used by Table 2 (central computation vs 2-bit marginal communication) and
// Fig. 3 (computation of all nodes vs marginal nodes only).
type DeviceOverlap struct {
	Device int
	// CommSeconds is the ring time the simulator charges every device per
	// epoch for the quantized marginal-node messages: the sum over layers
	// and both passes of each ring round's slowest pair (RingAll2All).
	CommSeconds timing.Seconds
	// CentralComp / MarginalComp are the per-epoch computation shares of
	// central and marginal nodes; TotalComp = CentralComp + MarginalComp.
	CentralComp  timing.Seconds
	MarginalComp timing.Seconds
	TotalComp    timing.Seconds
}

// AnalyzeOverlap computes, without training, each device's per-epoch
// communication time at uniform bit-width b and its central/marginal
// computation split — the measurements behind the paper's §2.2 motivation
// (Tables 2, Fig. 3): even at 2-bit, communication exceeds central
// computation, so the overlap hides the latter completely.
func AnalyzeOverlap(dep *Deployment, cfg Config, b quant.BitWidth, model *timing.CostModel) []DeviceOverlap {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if model == nil {
		model = timing.Default()
	}
	ds := dep.Dataset
	parts := len(dep.Locals)
	dims := messageDims(&cfg, ds.Features.Cols)
	// Per-epoch ring-all2all time at width b: L forward exchanges plus
	// L−1 backward exchanges, each paid round by round with the slowest
	// pair setting the round's pace (the straggler effect of §2.2). All
	// devices advance together through rounds, so this is charged to every
	// device.
	var ringComm timing.Seconds
	for l := 0; l < cfg.Layers; l++ {
		for _, dir := range directions {
			if l < dir.firstLayer() {
				continue
			}
			bytes := make([][]int, parts)
			for src, lg := range dep.Locals {
				bytes[src] = make([]int, parts)
				for dst, rows := range dir.sent(lg) {
					if dst != src && len(rows) > 0 {
						bytes[src][dst] = quant.WireSize(len(rows), dims[l], b)
					}
				}
			}
			ringComm += cluster.All2AllTime(model, bytes)
		}
	}

	out := make([]DeviceOverlap, parts)
	for rank, lg := range dep.Locals {
		dm := newDeviceModel(&cfg, lg, ds.Features.Cols, ds.NumClasses, model)
		o := DeviceOverlap{Device: rank, CommSeconds: ringComm}
		for _, c := range dm.costs {
			o.CentralComp += c[forward].Central + c[backward].Central
			o.MarginalComp += c[forward].Marginal + c[backward].Marginal
		}
		o.TotalComp = o.CentralComp + o.MarginalComp
		out[rank] = o
	}
	return out
}

// PairBytesFirstLayer returns the full-precision bytes each device pair
// transfers in the first GNN layer's forward pass — Fig. 2's measurement.
func PairBytesFirstLayer(dep *Deployment) [][]int {
	n := len(dep.Locals)
	dim := dep.Dataset.Features.Cols
	out := make([][]int, n)
	for src, lg := range dep.Locals {
		out[src] = fpAll2AllBytes(lg, dim)
	}
	return out
}

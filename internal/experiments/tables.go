package experiments

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/quant"
)

// Columns shared by the reports that walk the grid.
var (
	colDataset    = Column{Name: "Dataset"}
	colParts      = Column{Name: "Parts"}
	colModel      = Column{Name: "Model"}
	colMethod     = Column{Name: "Method"}
	colAccuracy   = Column{Name: "Accuracy(%)", Prec: 2}
	colThroughput = Column{Name: "Throughput (epoch/s)", Prec: 3}
	colSpeedup    = Column{Prec: 2, Pre: "(", Post: "x)"} // over the row's Vanilla
)

// table1 — Vanilla's communication cost (% of epoch time) and
// remote-neighbor ratio per dataset and partition setting.
func table1(r *Runner) *Report {
	rep := &Report{Columns: []Column{colDataset, {Name: "Partition"},
		{Name: "Communication Cost", Prec: 2, Post: "%"}, {Name: "Remote Neighbor Ratio", Prec: 2, Post: "%"}}}
	for _, c := range r.grid(r.Profile.EpochsShort, func(c Cell) bool {
		return c.Dataset != "yelp-sim" && c.Model == core.GCN && c.Codec == core.CodecFP32
	}) {
		c.EvalEvery = 0
		rep.add(c.Dataset, setting[c.Parts], 100*r.train(c).CommCost(), 100*r.deploy(c).Stats.RemoteNeighborAvg)
	}
	return rep
}

// overlap is the predicted (no training) per-device comm/comp split behind
// Table 2 and Fig. 3: products-sim on 8 partitions at 2-bit, always at the
// registry's full scale with the paper's hidden size 256.
func (r *Runner) overlap() []core.DeviceEpoch {
	c := r.cell("products-sim", 8, core.GCN, core.CodecUniform, 1)
	c.Scale, c.FeatureCap, c.Hidden = 1, 0, 256
	dep := r.deploy(c)
	cfg := c.config()
	cfg.UniformBits = quant.B2
	pred, err := core.Predict(dep, cfg, modelFor(dep.Dataset))
	if err != nil {
		panic(failure{err})
	}
	return pred
}

// table2 — central-node computation vs marginal-node communication at
// 2 bits: communication must exceed computation on every device for the
// overlap to hide central computation completely (§2.2).
func table2(r *Runner) *Report {
	rep := &Report{Columns: []Column{{Name: "Device"}, {Name: "comm. (s)", Prec: 4}, {Name: "Comp. (s)", Prec: 4}, {Name: "hidden?"}}}
	for dev, d := range r.overlap() {
		hidden := "yes"
		if d.Central > d.Ring {
			hidden = "NO"
		}
		rep.add("Device"+strconv.Itoa(dev), float64(d.Ring), float64(d.Central), hidden)
	}
	return rep
}

// table4 — the headline comparison: accuracy and throughput of Vanilla,
// PipeGCN/SANCUS and AdaQP over datasets × models × partition settings.
func table4(r *Runner) *Report {
	rep := &Report{Columns: []Column{colDataset, colParts, colModel, colMethod, colAccuracy, colThroughput, colSpeedup}}
	for _, c := range r.grid(r.Profile.EpochsLong, nil) {
		rep.add(c.Dataset, setting[c.Parts], c.Model.String(), names[c.Codec].system, r.accuracy(c), r.train(c).Throughput(), r.overVanilla(c))
	}
	return rep
}

// table5And9 — wall-clock training time for every dataset (Table 9); the
// paper's Table 5 is the AmazonProducts subset. A view over Table 4's
// first-seed runs.
func table5And9(r *Runner) *Report {
	rep := &Report{Columns: []Column{colDataset, colParts, colModel, colMethod,
		{Name: "Wall-clock (s)", Prec: 2}, {Name: "Assign (ms)", Prec: 2}}}
	for _, c := range r.grid(r.Profile.EpochsLong, nil) {
		res := r.train(c)
		rep.add(c.Dataset, setting[c.Parts], c.Model.String(), names[c.Codec].system, float64(res.WallClock), 1e3*float64(res.AssignTime))
	}
	return rep
}

// table6 — adaptive bit-width assignment vs uniform random sampling on
// products-sim. The Adaptive rows are Table 4's AdaQP cells.
func table6(r *Runner) *Report {
	rep := &Report{Columns: []Column{colParts, colModel, colMethod, colAccuracy, colThroughput}}
	for _, c := range r.grid(r.Profile.EpochsLong, func(c Cell) bool { return c.Dataset == "products-sim" && c.Codec == core.CodecAdaptive }) {
		for _, c.Codec = range []string{core.CodecRandom, core.CodecAdaptive} {
			rep.add(setting[c.Parts], c.Model.String(), names[c.Codec].scheme, r.accuracy(c), r.train(c).Throughput())
		}
	}
	return rep
}

// table7 — scalability: GraphSAGE on 24 devices (6M-4D).
func table7(r *Runner) *Report {
	rep := &Report{Columns: []Column{colDataset, colMethod, colThroughput, colSpeedup}}
	for _, name := range []string{"products-sim", "amazon-sim"} {
		for _, codec := range []string{core.CodecFP32, core.CodecAdaptive} {
			c := r.cell(name, 24, core.GraphSAGE, codec, r.Profile.EpochsShort*2)
			// 24 devices need the largest graphs available, the whole
			// registry graph, for per-pair messages to stay meaningfully sized.
			c.Scale, c.FeatureCap, c.EvalEvery = 1, 0, 0
			rep.add(name, names[codec].system, r.train(c).Throughput(), r.overVanilla(c))
		}
	}
	return rep
}

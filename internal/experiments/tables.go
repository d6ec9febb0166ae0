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
	colSpeedup    = Column{Prec: 2, Pre: "(", Post: "x)"} // over the Vanilla row above
)

// speedup is tp over the Vanilla throughput of the same deployment, or nil
// on the Vanilla row itself, which sets *vanilla.
func speedup(m core.Method, tp float64, vanilla *float64) any {
	if m == core.Vanilla {
		*vanilla = tp
		return nil
	}
	return tp / *vanilla
}

// table1 — Vanilla's communication cost (% of epoch time) and
// remote-neighbor ratio per dataset and partition setting.
func table1(r *Runner) *Report {
	rep := &Report{Columns: []Column{colDataset, {Name: "Partition"},
		{Name: "Communication Cost", Prec: 2, Post: "%"}, {Name: "Remote Neighbor Ratio", Prec: 2, Post: "%"}}}
	for _, c := range r.grid(r.Profile.EpochsShort, func(c Cell) bool {
		return c.Dataset != "yelp-sim" && c.Model == core.GCN && c.Method == core.Vanilla
	}) {
		c.EvalEvery = 0
		rep.add(c.Dataset, setting[c.Parts], 100*r.train(c).CommCost(), 100*r.deploy(c).Stats.RemoteNeighborAvg)
	}
	return rep
}

// overlap is the analytic (no training) per-device comm/comp split behind
// Table 2 and Fig. 3: products-sim on 8 partitions at 2-bit, always at the
// registry's full scale with the paper's hidden size 256.
func (r *Runner) overlap() []core.DeviceOverlap {
	c := r.cell("products-sim", 8, core.GCN, core.AdaQPUniform, 1)
	c.Scale, c.FeatureCap, c.Hidden = 1, 0, 256
	dep := r.deploy(c)
	return core.AnalyzeOverlap(dep, c.config(), quant.B2, modelFor(dep.Dataset))
}

// table2 — central-node computation vs marginal-node communication at
// 2 bits: communication must exceed computation on every device for the
// overlap to hide central computation completely (§2.2).
func table2(r *Runner) *Report {
	rep := &Report{Columns: []Column{{Name: "Device"}, {Name: "comm. (s)", Prec: 4}, {Name: "Comp. (s)", Prec: 4}, {Name: "hidden?"}}}
	for _, d := range r.overlap() {
		hidden := "yes"
		if d.CentralComp > d.CommSeconds {
			hidden = "NO"
		}
		rep.add("Device"+strconv.Itoa(d.Device), float64(d.CommSeconds), float64(d.CentralComp), hidden)
	}
	return rep
}

// table4 — the headline comparison: accuracy and throughput of Vanilla,
// PipeGCN/SANCUS and AdaQP over datasets × models × partition settings.
func table4(r *Runner) *Report {
	rep := &Report{Columns: []Column{colDataset, colParts, colModel, colMethod, colAccuracy, colThroughput, colSpeedup}}
	var vanilla float64
	for _, c := range r.grid(r.Profile.EpochsLong, nil) {
		acc, tp := r.summarize(c)
		rep.add(c.Dataset, setting[c.Parts], c.Model.String(), c.Method.String(), acc, tp, speedup(c.Method, tp, &vanilla))
	}
	return rep
}

// table5And9 — wall-clock training time for every dataset (Table 9); the
// paper's Table 5 is the AmazonProducts subset. A view over Table 4's
// first-seed runs.
func table5And9(r *Runner) *Report {
	rep := &Report{Columns: []Column{colDataset, colParts, colModel, colMethod,
		{Name: "Wall-clock (s)", Prec: 2}, {Name: "Assign (s)", Prec: 2}}}
	for _, c := range r.grid(r.Profile.EpochsLong, nil) {
		res := r.train(c)
		rep.add(c.Dataset, setting[c.Parts], c.Model.String(), c.Method.String(), float64(res.WallClock), float64(res.AssignTime))
	}
	return rep
}

// table6 — adaptive bit-width assignment vs uniform random sampling on
// products-sim. The Adaptive rows are Table 4's AdaQP cells.
func table6(r *Runner) *Report {
	rep := &Report{Columns: []Column{colParts, colModel, colMethod, colAccuracy, colThroughput}}
	sampling := map[core.Method]string{core.AdaQPRandom: "Uniform", core.AdaQP: "Adaptive"}
	for _, c := range r.grid(r.Profile.EpochsLong, func(c Cell) bool { return c.Dataset == "products-sim" && c.Method == core.AdaQP }) {
		for _, c.Method = range []core.Method{core.AdaQPRandom, core.AdaQP} {
			acc, tp := r.summarize(c)
			rep.add(setting[c.Parts], c.Model.String(), sampling[c.Method], acc, tp)
		}
	}
	return rep
}

// table7 — scalability: GraphSAGE on 24 devices (6M-4D).
func table7(r *Runner) *Report {
	rep := &Report{Columns: []Column{colDataset, colMethod, colThroughput, colSpeedup}}
	var vanilla float64
	for _, name := range []string{"products-sim", "amazon-sim"} {
		for _, m := range []core.Method{core.Vanilla, core.AdaQP} {
			c := r.cell(name, 24, core.GraphSAGE, m, r.Profile.EpochsShort*2)
			// 24 devices need the largest graphs available, the whole
			// registry graph, for per-pair messages to stay meaningfully sized.
			c.Scale, c.FeatureCap, c.EvalEvery = 1, 0, 0
			tp := r.train(c).Throughput()
			rep.add(name, m.String(), tp, speedup(m, tp, &vanilla))
		}
	}
	return rep
}

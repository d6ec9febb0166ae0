package experiments

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/core"
)

// figure2 — data size transferred across each device pair in the GCN's
// first layer, amazon-sim with 4 partitions. The imbalance across pairs is
// what motivates the minimax term of the bit-width assignment (Eqn. 10).
func figure2(r *Runner) *Report {
	rep := &Report{Columns: []Column{{Name: "Device Pair"}, {Name: "Data size (MB)", Prec: 3}}}
	var sizes []float64
	for src, row := range core.PairBytesFirstLayer(r.deploy(r.cell("amazon-sim", 4, core.GCN, core.CodecFP32, 1))) {
		for dst, b := range row {
			if src != dst {
				sizes = append(sizes, float64(b)/1e6)
				rep.add(strconv.Itoa(src)+"_"+strconv.Itoa(dst), float64(b)/1e6)
			}
		}
	}
	if mn := slices.Min(sizes); mn > 0 {
		rep.Notes = []string{fmt.Sprintf("imbalance (max/min): %.2fx", slices.Max(sizes)/mn)}
	}
	return rep
}

// figure3 — computation time of all nodes vs marginal nodes only: the
// central share is what the overlap schedule hides.
func figure3(r *Runner) *Report {
	rep := &Report{Columns: []Column{{Name: "Device"}, {Name: "All (s)", Prec: 4}, {Name: "Marginal (s)", Prec: 4},
		{Name: "Ratio (%)", Prec: 1, Post: "%"}}}
	for dev, d := range r.overlap() {
		all := d.Central + d.Marginal
		rep.add("Device"+strconv.Itoa(dev), float64(all), float64(d.Marginal), 100*float64(d.Marginal/all))
	}
	return rep
}

// figure9And12 — validation accuracy by epoch for every method on each
// dataset's first partition setting, as CSV series: Figure 12, of which
// Figure 9 is the Reddit/products part. A view over Table 4's first seed.
func figure9And12(r *Runner) *Report {
	rep := &Report{SeriesKey: 3, Columns: []Column{colDataset, colModel, colParts,
		{Name: "method"}, {Name: "epoch"}, {Name: "val_acc", Prec: 4}}}
	for _, c := range r.grid(r.Profile.EpochsLong, func(c Cell) bool { return c.Parts == partsFor[c.Dataset][0] }) {
		xs, ys := r.train(c).Curve()
		for i := range xs {
			rep.add(c.Dataset, c.Model.String(), setting[c.Parts], names[c.Codec].system, xs[i], ys[i])
		}
	}
	return rep
}

// figure10 — time breakdown: (a) per-epoch communication / computation /
// quantization for Vanilla vs AdaQP; (b) wall-clock training vs assignment.
func figure10(r *Runner) *Report {
	rep := &Report{Columns: []Column{colDataset, colParts, colMethod,
		{Name: "Comm(s)", Prec: 4}, {Name: "Comp(s)", Prec: 4}, {Name: "Quant(s)", Prec: 4},
		{Name: "Train(s)", Prec: 2, Panel: true}, {Name: "Assign(ms)", Prec: 2}}}
	for _, c := range r.grid(r.Profile.EpochsShort*4, func(c Cell) bool { return c.Model == core.GCN && c.Codec != core.CodecSancus }) {
		c.EvalEvery = 0
		res := r.train(c)
		per := res.PerEpoch()
		rep.add(c.Dataset, setting[c.Parts], names[c.Codec].system, float64(per.Comm+per.Idle), float64(per.Comp), float64(per.Quant),
			float64(res.WallClock-res.AssignTime), 1e3*float64(res.AssignTime))
	}
	return rep
}

// figure11 — accuracy and assignment overhead of GCN on products-sim 2M-4D:
// each row is Table 4's cell with one knob turned; λ = 0.5 is that cell.
func figure11(r *Runner) *Report {
	rep := &Report{Columns: []Column{{Name: "Knob"}, {Name: "Value", Prec: 2},
		{Name: "Accuracy(%)", Prec: 2, Post: "%"}, {Name: "Overhead(s)", Prec: 4}}}
	for _, knob := range []struct {
		name   string
		values []any
		turn   func(*Cell, any)
	}{
		{"group-size", []any{50, 500, 2000, 10000}, func(c *Cell, v any) { c.GroupSize = v.(int) }},
		{"lambda", []any{0.0, 0.25, 0.5, 0.75, 1.0}, func(c *Cell, v any) { c.Lambda = v.(float64) }},
		{"period", []any{10, 25, 50}, func(c *Cell, v any) { c.ReassignPeriod = v.(int) }},
	} {
		for _, v := range knob.values {
			c := r.cell("products-sim", 8, core.GCN, core.CodecAdaptive, r.Profile.EpochsLong)
			knob.turn(&c, v)
			rep.add(knob.name, v, r.accuracy(c), float64(r.train(c).AssignTime))
		}
	}
	return rep
}

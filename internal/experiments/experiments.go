// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2 motivation and §5). A Cell is one fixed-seed training of
// one codec; a Runner trains each Cell an invocation asks for once; every
// table and figure is a view that turns the Runner's results into a typed
// Report, with each accuracy set against Vanilla on the same seeds;
// Experiments is the registry `cmd/paper -table N` / `-figure N` indexes.
package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// Profile scales the experiments.
type Profile struct {
	Name  string
	Scale synthetic.Scale // of dataset node/edge counts (1.0 = the ~100×-reduced registry defaults)
	// FeatureCap truncates feature dimension (0 = no cap). Reddit's 602
	// features dominate quick-mode compute; capping preserves behaviour
	// because every synthetic feature dimension carries class signal.
	FeatureCap int
	Hidden     int
	// EpochsLong is for accuracy/convergence experiments; EpochsShort for
	// timing-only experiments.
	EpochsLong, EpochsShort int
	EvalEvery               int
	// Seeds are the seeds every accuracy cell trains at (the paper
	// repeats 3 runs). Timing cells read Seeds[0] alone: the simulated
	// clock is exact per seed.
	Seeds []uint64
}

// Profiles are what `cmd/paper -profile` accepts: quick, the default,
// takes about a minute for the whole suite; standard is for overnight
// runs; full mirrors the paper's setup on the whole registry (hours).
var Profiles = []Profile{
	{Name: "quick", Scale: 0.15, FeatureCap: 96, Hidden: 48, EpochsLong: 60, EpochsShort: 5, EvalEvery: 5, Seeds: []uint64{1}},
	{Name: "standard", Scale: 0.5, Hidden: 128, EpochsLong: 200, EpochsShort: 10, EvalEvery: 5, Seeds: []uint64{1, 1001, 2001}},
	{Name: "full", Scale: 1, Hidden: 256, EpochsLong: 250, EpochsShort: 20, EvalEvery: 5, Seeds: []uint64{1, 1001, 2001}},
}

var (
	// partsFor lists a dataset's two partition settings in Table 4 as device
	// counts; setting names one the paper's way, machines × devices in each.
	partsFor = map[string][]int{"reddit-sim": {2, 4}, "yelp-sim": {2, 4}, "products-sim": {4, 8}, "amazon-sim": {4, 8}}
	setting  = map[int]string{2: "2M-1D", 4: "2M-2D", 8: "2M-4D", 24: "6M-4D"}
	// rival is the codec of the published system Table 4 sets beside
	// Vanilla and AdaQP.
	rival = map[core.ModelKind]string{core.GCN: core.CodecSancus, core.GraphSAGE: core.CodecPipeGCN}
	// names is what the paper calls each codec's system and, for the two
	// width schemes Table 6 compares, the scheme.
	names = map[string]struct{ system, scheme string }{
		core.CodecFP32: {system: "Vanilla"}, core.CodecSancus: {system: "SANCUS"}, core.CodecPipeGCN: {system: "PipeGCN"},
		core.CodecAdaptive: {"AdaQP", "Adaptive"}, core.CodecRandom: {scheme: "Uniform"},
	}
)

// Cell is one fixed-seed training and the Runner's memo key: everything
// that determines the result, nothing else. Its config is derived from it,
// so no experiment can set a core.Config field, hook or factory the key
// does not see; every deployment uses partition.Block.
type Cell struct {
	Dataset    string
	Scale      synthetic.Scale
	FeatureCap int
	Parts      int
	Model      core.ModelKind
	Codec      string

	Hidden, Epochs, EvalEvery, GroupSize, ReassignPeriod int
	Lambda                                               float64
	Seed                                                 uint64
}

func (c Cell) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Model, cfg.Codec, cfg.Seed = c.Model, c.Codec, c.Seed
	cfg.Hidden, cfg.Epochs, cfg.EvalEvery = c.Hidden, c.Epochs, c.EvalEvery
	cfg.GroupSize, cfg.Lambda, cfg.ReassignPeriod = c.GroupSize, c.Lambda, c.ReassignPeriod
	return cfg
}

// Runner serves one invocation's trainings: each distinct Cell trains once
// and every experiment that asks for it shares the result, so Table 5/9,
// Fig. 9/12, Table 6's Adaptive rows and Fig. 11's λ = 0.5 row cost nothing
// after Table 4. That is sound because evaluation is off the simulated
// clock and draws no randomness (TestEvalIsOffTheClock) and because
// results are never mutated. A Runner needs only its Profile set.
type Runner struct {
	Profile   Profile
	Trainings int // trainings executed so far (memo misses)
	runs      map[Cell]*metrics.RunResult
	// The dataset in use and its deployments, keyed by Cells with only the
	// fields that select them set. Experiments walk the grid dataset by
	// dataset, so each loads once and memory is bounded by one dataset.
	data Cell
	ds   *synthetic.Dataset
	deps map[Cell]*core.Deployment
}

// failure is what deploy and train panic with and Experiment.Run returns.
type failure struct{ err error }

// cell is at the profile's size and first seed with the paper's AdaQP knobs.
func (r *Runner) cell(dataset string, parts int, model core.ModelKind, codec string, epochs int) Cell {
	p, def := r.Profile, core.DefaultConfig()
	return Cell{
		Dataset: dataset, Scale: p.Scale, FeatureCap: p.FeatureCap, Parts: parts, Model: model, Codec: codec,
		Hidden: p.Hidden, Epochs: epochs, EvalEvery: p.EvalEvery, GroupSize: def.GroupSize, Lambda: def.Lambda,
		// Re-assign roughly 4 times per run regardless of length.
		ReassignPeriod: max(epochs/4, 2), Seed: p.Seeds[0],
	}
}

// vanilla is c's baseline: c trained by Vanilla, with the AdaQP knobs fp32
// ignores at their cell defaults, so every knob setting shares one Vanilla.
func (r *Runner) vanilla(c Cell) Cell {
	v := r.cell(c.Dataset, c.Parts, c.Model, core.CodecFP32, c.Epochs)
	c.Codec, c.GroupSize, c.Lambda, c.ReassignPeriod = v.Codec, v.GroupSize, v.Lambda, v.ReassignPeriod
	return c
}

// grid lists, in the paper's row order, the cells of Table 4's dataset ×
// setting × model × codec grid that keep accepts (nil: all). Every
// experiment that walks the grid, whole or in part, filters this one loop.
func (r *Runner) grid(epochs int, keep func(Cell) bool) []Cell {
	var cells []Cell
	for _, name := range []string{"reddit-sim", "yelp-sim", "products-sim", "amazon-sim"} {
		for _, parts := range partsFor[name] {
			for _, mk := range []core.ModelKind{core.GCN, core.GraphSAGE} {
				for _, codec := range []string{core.CodecFP32, rival[mk], core.CodecAdaptive} {
					if c := r.cell(name, parts, mk, codec, epochs); keep == nil || keep(c) {
						cells = append(cells, c)
					}
				}
			}
		}
	}
	return cells
}

// deploy returns c's deployment, built on first use: load, cap, partition.
func (r *Runner) deploy(c Cell) *core.Deployment {
	d := Cell{Dataset: c.Dataset, Scale: c.Scale, FeatureCap: c.FeatureCap}
	if d != r.data {
		ds, err := synthetic.Load(d.Dataset, d.Scale)
		if err != nil {
			panic(failure{err})
		}
		if d.FeatureCap > 0 && ds.Features.Cols > d.FeatureCap {
			capped := tensor.New(ds.Features.Rows, d.FeatureCap)
			for i := 0; i < ds.Features.Rows; i++ {
				copy(capped.Row(i), ds.Features.Row(i)[:d.FeatureCap])
			}
			ds.Features = capped
		}
		r.data, r.ds, r.deps = d, ds, map[Cell]*core.Deployment{}
	}
	d.Parts, d.Model = c.Parts, c.Model
	if r.deps[d] == nil {
		r.deps[d] = core.Deploy(r.ds, d.Parts, d.Model, partition.Block)
	}
	return r.deps[d]
}

// train returns c's result, training it unless this Runner already has.
func (r *Runner) train(c Cell) *metrics.RunResult {
	if r.runs == nil {
		r.runs = map[Cell]*metrics.RunResult{}
	}
	if r.runs[c] == nil {
		dep := r.deploy(c)
		res, err := core.TrainDeployed(dep, c.config(), modelFor(dep.Dataset))
		if err != nil {
			panic(failure{fmt.Errorf("%s %s on %s/%d: %w", c.Model, c.Codec, c.Dataset, c.Parts, err)})
		}
		r.Trainings++
		r.runs[c] = res
	}
	return r.runs[c]
}

// accuracy is c's test accuracy cell (%) over the profile's seeds: Paired
// against vanilla(c) at the same seeds, or, on Vanilla's own row, its median.
func (r *Runner) accuracy(c Cell) any {
	var acc, diff []float64
	var sum float64
	for _, c.Seed = range r.Profile.Seeds {
		a := 100 * r.train(c).FinalTest
		d := a - 100*r.train(r.vanilla(c)).FinalTest
		acc, diff, sum = append(acc, a), append(diff, d), sum+d
	}
	if c.Codec == core.CodecFP32 {
		return median(acc)
	}
	p, n := Paired{Median: median(acc), Delta: median(diff)}, float64(len(diff))
	for _, d := range diff {
		p.SD += (d - sum/n) * (d - sum/n) / max(n-1, 1)
		switch {
		case d > 0:
			p.Up++
		case d < 0:
			p.Down++
		default:
			p.Tie++
		}
	}
	p.SD = math.Sqrt(p.SD)
	return p
}

// median of xs, which it sorts.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}

// overVanilla is c's throughput over vanilla(c)'s, nil on Vanilla's own row.
func (r *Runner) overVanilla(c Cell) any {
	if c.Codec == core.CodecFP32 {
		return nil
	}
	return r.train(c).Throughput() / r.train(r.vanilla(c)).Throughput()
}

// realNodeCounts are the sizes of the datasets the -sim graphs stand in for.
var realNodeCounts = map[string]float64{
	"reddit-sim": 232965, "yelp-sim": 716847, "products-sim": 2449029, "amazon-sim": 1569960,
}

// modelFor returns the cost model for experiments on ds. The synthetic
// graphs are 30–150× smaller than the real datasets; running them against
// full V100 + 100 Gbps constants would make every workload latency-bound
// and hide the compute/communication balance the paper measures. Instead
// the device and network rates are divided by the same reduction factor —
// a scaled physical model: per-epoch byte/FLOP ratios, and therefore
// communication-cost percentages, speedups and crossovers, match a
// full-size run. Latency γ is scale-free and kept as is.
func modelFor(ds *synthetic.Dataset) *timing.CostModel {
	m := timing.Default()
	if real, ok := realNodeCounts[ds.Name]; ok {
		factor := max(real/float64(ds.NumNodes()), 1)
		m.DenseFLOPS /= factor
		m.SparseFLOPS /= factor
		m.QuantRate /= factor
		m.Bandwidth /= factor
	}
	return m
}

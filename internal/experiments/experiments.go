// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2 motivation and §5). Each Table*/Figure* function runs
// the corresponding workload and prints rows shaped like the paper's;
// `cmd/bench -table N` / `-figure N` is the index.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// Profile scales the experiments. Quick finishes the whole suite in
// minutes on a laptop; Full approaches the paper's configuration (hours).
type Profile struct {
	Name string
	// Scale multiplies dataset node/edge counts (1.0 = the ~100×-reduced
	// registry defaults).
	Scale synthetic.Scale
	// FeatureCap truncates feature dimension (0 = no cap). Reddit's 602
	// features dominate quick-mode compute; capping preserves behaviour
	// because every synthetic feature dimension carries class signal.
	FeatureCap int
	Hidden     int
	// EpochsLong is for accuracy/convergence experiments; EpochsShort for
	// timing-only experiments.
	EpochsLong, EpochsShort int
	Runs                    int // repeats for mean±std (paper: 3)
	EvalEvery               int
}

// Quick is the default CI-scale profile.
var Quick = Profile{
	Name: "quick", Scale: 0.15, FeatureCap: 96, Hidden: 48,
	EpochsLong: 60, EpochsShort: 5, Runs: 1, EvalEvery: 5,
}

// Standard is a heavier profile for overnight runs.
var Standard = Profile{
	Name: "standard", Scale: 0.5, FeatureCap: 0, Hidden: 128,
	EpochsLong: 200, EpochsShort: 10, Runs: 3, EvalEvery: 5,
}

// Full mirrors the paper's setup on the full synthetic registry scale.
var Full = Profile{
	Name: "full", Scale: 1, FeatureCap: 0, Hidden: 256,
	EpochsLong: 250, EpochsShort: 20, Runs: 3, EvalEvery: 5,
}

// Setting is one "xM-yD" partition configuration from the paper.
type Setting struct {
	Label string
	Parts int
}

// Paper partition settings per dataset (Table 4).
func settingsFor(dataset string) []Setting {
	switch dataset {
	case "reddit-sim", "yelp-sim":
		return []Setting{{"2M-1D", 2}, {"2M-2D", 4}}
	default:
		return []Setting{{"2M-2D", 4}, {"2M-4D", 8}}
	}
}

// loadDataset applies the profile's scale and feature cap.
func (p Profile) loadDataset(name string) (*synthetic.Dataset, error) {
	ds, err := synthetic.Load(name, p.Scale)
	if err != nil {
		return nil, err
	}
	if p.FeatureCap > 0 && ds.Features.Cols > p.FeatureCap {
		capped := tensor.New(ds.Features.Rows, p.FeatureCap)
		for i := 0; i < ds.Features.Rows; i++ {
			copy(capped.Row(i), ds.Features.Row(i)[:p.FeatureCap])
		}
		ds.Features = capped
	}
	return ds, nil
}

func (p Profile) baseConfig(model core.ModelKind, method core.Method, epochs int, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Model = model
	cfg.Method = method
	cfg.Hidden = p.Hidden
	cfg.Epochs = epochs
	cfg.EvalEvery = p.EvalEvery
	cfg.Seed = seed
	// Re-assign roughly 4 times per run regardless of length.
	cfg.ReassignPeriod = epochs / 4
	if cfg.ReassignPeriod < 2 {
		cfg.ReassignPeriod = 2
	}
	return cfg
}

// runRepeated trains Runs times with different seeds and summarizes.
func (p Profile) runRepeated(dep *core.Deployment, cfg core.Config, model *timing.CostModel) ([]*metrics.RunResult, metrics.Summary, error) {
	var runs []*metrics.RunResult
	for r := 0; r < p.Runs; r++ {
		cfg.Seed = uint64(1000*r + 1)
		res, err := core.TrainDeployed(dep, cfg, model)
		if err != nil {
			return nil, metrics.Summary{}, err
		}
		runs = append(runs, res)
	}
	return runs, metrics.Summarize(runs), nil
}

// Options configures an experiment invocation.
type Options struct {
	Profile Profile
	Out     io.Writer
	Model   *timing.CostModel // nil → scaled default (see modelFor)
}

// realNodeCounts are the node counts of the datasets the -sim graphs stand
// in for (paper Table 3), used to scale the cost model.
var realNodeCounts = map[string]float64{
	"reddit-sim":   232965,
	"yelp-sim":     716847,
	"products-sim": 2449029,
	"amazon-sim":   1569960,
}

// modelFor returns the cost model for experiments on ds. The synthetic
// graphs are 30–150× smaller than the real datasets; running them against
// full V100 + 100 Gbps constants would make every workload latency-bound
// and hide the compute/communication balance the paper measures. Instead
// the device and network rates are divided by the same reduction factor —
// a scaled physical model: per-epoch byte/FLOP ratios, and therefore
// communication-cost percentages, speedups and crossovers, match a
// full-size run. Latency γ is scale-free and kept as is.
func (o Options) modelFor(ds *synthetic.Dataset) *timing.CostModel {
	if o.Model != nil {
		return o.Model
	}
	m := timing.Default()
	real, ok := realNodeCounts[ds.Name]
	if !ok {
		return m
	}
	factor := real / float64(ds.NumNodes())
	if factor < 1 {
		factor = 1
	}
	m.DenseFLOPS /= factor
	m.SparseFLOPS /= factor
	m.QuantRate /= factor
	m.Bandwidth /= factor
	return m
}

func (o *Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// header prints a section banner.
func (o *Options) header(id, title string) {
	o.printf("\n=== %s — %s (profile %s) ===\n", id, title, o.Profile.Name)
}

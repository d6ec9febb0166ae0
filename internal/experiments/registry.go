package experiments

import (
	"fmt"
	"slices"
	"strings"
)

// Experiment is one table or figure of the paper.
type Experiment struct {
	ID string // "t4", "f10": what `-table 4` / `-figure 10` select
	// Aliases are the ids of tables and figures this experiment's report
	// contains: Table 9 holds Table 5, Fig. 12 holds Fig. 9.
	Aliases []string
	Title   string
	Build   func(*Runner) *Report
}

// Experiments is the registry, in the order `-all` prints.
var Experiments = []Experiment{
	{ID: "t1", Title: "Table 1 — Communication overhead in Vanilla", Build: table1},
	{ID: "f2", Title: "Figure 2 — Per-device-pair data size, amazon-sim, 4 partitions", Build: figure2},
	{ID: "t2", Title: "Table 2 — Central comp vs 2-bit marginal comm, products-sim 8 partitions", Build: table2},
	{ID: "f3", Title: "Figure 3 — Computation time: all vs marginal nodes, products-sim, 8 partitions", Build: figure3},
	{ID: "t4", Title: "Table 4 — Training performance comparison", Build: table4},
	{ID: "t9", Aliases: []string{"t5"}, Title: "Table 5/9 — Wall-clock training time (s)", Build: table5And9},
	{ID: "t6", Title: "Table 6 — Uniform sampling vs adaptive assignment, products-sim", Build: table6},
	{ID: "t7", Title: "Table 7 — Training throughput on the 6M-4D partition (24 devices)", Build: table7},
	{ID: "f12", Aliases: []string{"f9"}, Title: "Figure 9/12 — Convergence curves (validation accuracy by epoch)", Build: figure9And12},
	{ID: "f10", Title: "Figure 10 — Time breakdown of Vanilla and AdaQP (GCN)", Build: figure10},
	{ID: "f11", Title: "Figure 11 — Sensitivity: group size, lambda, re-assignment period", Build: figure11},
}

// Run builds the experiment's report from r's trainings.
func (e Experiment) Run(r *Runner) (rep *Report, err error) {
	defer func() {
		switch p := recover().(type) {
		case nil:
			rep.ID, rep.Title, rep.Profile = e.ID, e.Title, r.Profile.Name
		case failure:
			err = fmt.Errorf("%s: %w", e.ID, p.err)
		default:
			panic(p)
		}
	}()
	return e.Build(r), nil
}

// IDs lists every id Select accepts: each experiment's, then its aliases'.
func IDs() []string {
	var ids []string
	for _, e := range Experiments {
		ids = append(append(ids, e.ID), e.Aliases...)
	}
	return ids
}

// Select returns, in registry order, the experiments ids name by id or by
// alias, each once.
func Select(ids []string) ([]Experiment, error) {
	var picked []Experiment
	for _, e := range Experiments {
		if slices.ContainsFunc(ids, func(id string) bool { return id == e.ID || slices.Contains(e.Aliases, id) }) {
			picked = append(picked, e)
		}
	}
	for _, id := range ids {
		if !slices.Contains(IDs(), id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(IDs(), ", "))
		}
	}
	return picked, nil
}

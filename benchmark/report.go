package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one metric: BENCHMARK.json is generated from these
// tables (-spec), so the declared and the emitted names cannot drift.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type checkResult struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Detail    string `json:"detail,omitempty"` // first failure
}

// report is what one pass (traced or untraced) of one workload produced.
type report struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Seed     uint64  `json:"seed"`
	WallS    float64 `json:"wall_s"`
	Error    string  `json:"error,omitempty"`

	Checks  []*checkResult         `json:"checks"`
	Metrics map[string]metricValue `json:"metrics"`
	// Notes are sample counts and context that are not declared metrics.
	Notes map[string]float64 `json:"notes,omitempty"`
	// Samples are the raw per-operation measurements behind the host
	// metrics, kept in the -out file only.
	Samples map[string][]float64 `json:"samples,omitempty"`

	defs []metricDef
}

func newReport(workload string, traced bool, seed uint64) *report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return &report{
		Workload: workload, Traced: traced, Seed: seed, defs: defs,
		Metrics: map[string]metricValue{}, Notes: map[string]float64{}, Samples: map[string][]float64{},
	}
}

// attempt records one correctness check outcome under name.
func (r *report) attempt(name string, err error) {
	var c *checkResult
	for _, have := range r.Checks {
		if have.Name == name {
			c = have
		}
	}
	if c == nil {
		c = &checkResult{Name: name}
		r.Checks = append(r.Checks, c)
	}
	c.Attempted++
	if err != nil {
		c.Failed++
		if c.Detail == "" {
			c.Detail = err.Error()
		}
	}
}

// set records a declared metric; an undeclared or non-finite one is a
// bug in the benchmark and fails the run.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.attempt("metric "+name+" is finite", fmt.Errorf("value %v", v))
				v = 0
			}
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	r.attempt("metric "+name+" is declared", fmt.Errorf("not in the metric table"))
}

func (r *report) note(name string, v float64)       { r.Notes[name] = v }
func (r *report) samples(name string, xs []float64) { r.Samples[name] = xs }
func (r *report) totals() (attempted, failed int) {
	for _, c := range r.Checks {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// finish verifies every declared metric was emitted exactly once.
func (r *report) finish() {
	for _, d := range r.defs {
		_, ok := r.Metrics[d.Name]
		var err error
		if !ok {
			err = fmt.Errorf("metric %s was not emitted", d.Name)
		}
		r.attempt("every declared metric is emitted", err)
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) resultLine() resultLine {
	a, f := r.totals()
	return resultLine{Correct: f == 0 && r.Error == "", Attempted: a, Failed: f, Metrics: r.Metrics}
}

// printTable writes every metric by name with unit, direction and bound,
// then the checks.
func (r *report) printTable(w io.Writer) {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  %s  seed %d  %.1fs\n", r.Workload, pass, r.Seed, r.WallS)
	for _, d := range r.defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %.2f", d.Bound)
		}
		fmt.Fprintf(w, "  %-44s %14.6g %-8s %s is better%s\n", d.Name, m.Value, d.Unit, d.Better, bound)
	}
	names := make([]string, 0, len(r.Notes))
	for n := range r.Notes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  (%s = %g)\n", n, r.Notes[n])
	}
	for _, c := range r.Checks {
		status := "ok"
		if c.Failed > 0 {
			status = fmt.Sprintf("FAILED %d: %s", c.Failed, c.Detail)
		}
		fmt.Fprintf(w, "  check %-44s %4d  %s\n", c.Name, c.Attempted, status)
	}
	a, f := r.totals()
	fmt.Fprintf(w, "  failed_share %d/%d\n", f, a)
	if r.Error != "" {
		fmt.Fprintf(w, "  ERROR %s\n", r.Error)
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and finite floats reach here
	}
	return b
}

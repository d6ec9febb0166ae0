package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compareFiles applies each end-to-end metric's direction and bound to
// two -out files (A the reference, B the candidate) and prints one row
// per workload and metric:
//
//	better      B improved on A by more than the bound
//	same        within the bound (simulated metrics: bit-identical)
//	worse       B is worse than A by more than the bound
//	unresolved  the metric is missing on one side
//
// Simulated metrics are exact for a seed: with equal seeds any difference
// is a change of design, reported as better or worse whatever its size.
// It reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Meta.Seed != b.Meta.Seed || a.Meta.NumCPU != b.Meta.NumCPU || a.Meta.GOMAXPROCS != b.Meta.GOMAXPROCS ||
		a.Meta.Go != b.Meta.Go || a.Meta.Seconds != b.Meta.Seconds {
		fmt.Fprintf(w, "warning: runs are not comparable: seed %d/%d nproc %d/%d GOMAXPROCS %d/%d %s/%s seconds %g/%g\n",
			a.Meta.Seed, b.Meta.Seed, a.Meta.NumCPU, b.Meta.NumCPU, a.Meta.GOMAXPROCS, b.Meta.GOMAXPROCS,
			a.Meta.Go, b.Meta.Go, a.Meta.Seconds, b.Meta.Seconds)
	}
	fmt.Fprintf(w, "A %s  commit %s\nB %s  commit %s\n", pathA, a.Meta.Commit, pathB, b.Meta.Commit)
	fmt.Fprintf(w, "%-16s %-26s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "change", "verdict")
	for _, wl := range workloads {
		ra, rb := a.pass(wl.Name), b.pass(wl.Name)
		for _, d := range endToEnd {
			verdict, va, vb := "unresolved", math.NaN(), math.NaN()
			if ra != nil && rb != nil {
				ma, okA := ra.Metrics[d.Name]
				mb, okB := rb.Metrics[d.Name]
				if okA && okB {
					va, vb = ma.Value, mb.Value
					verdict = judge(d, va, vb, a.Meta.Seed == b.Meta.Seed)
				}
			}
			worse = worse || verdict == "worse"
			fmt.Fprintf(w, "%-16s %-26s %14.6g %14.6g %+8.2f%%  %s\n", wl.Name, d.Name, va, vb, 100*(vb/va-1), verdict)
		}
	}
	return worse, nil
}

// judge compares candidate vb with reference va under d's direction and
// bound.
func judge(d metricDef, va, vb float64, sameSeed bool) string {
	change := vb/va - 1
	if d.Better == "lower" {
		change = -change
	}
	exact := strings.HasPrefix(d.Name, "sim_")
	switch {
	case exact && sameSeed && math.Float64bits(va) == math.Float64bits(vb):
		return "same"
	case exact && sameSeed && change > 0:
		return "better"
	case exact && sameSeed:
		return "worse"
	case change > d.Bound:
		return "better"
	case change < -d.Bound:
		return "worse"
	}
	return "same"
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// pass is the untraced report of a workload, or nil.
func (r *results) pass(workload string) *report {
	for _, p := range r.Passes {
		if p.Workload == workload && !p.Traced {
			return p
		}
	}
	return nil
}

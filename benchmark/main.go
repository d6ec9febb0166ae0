// Command benchmark is the repository's performance harness: four named
// workloads on the public API, end-to-end metrics on two clocks (host and
// simulated), a per-layer ledger measured from outside, and a correctness
// gate. See README.md.
//
//	go run -C benchmark . --workload halo-reddit --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . -seed 1 -out results.json -trace-dir traces
//	go run -C benchmark . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/wire"
)

// results is the -out file: run metadata, so two files can be checked
// for comparability, and every pass's report.
type results struct {
	Meta struct {
		Go         string  `json:"go"`
		NumCPU     int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		Commit     string  `json:"commit"`
		Seed       uint64  `json:"seed"`
		Seconds    float64 `json:"seconds"`
		WallS      float64 `json:"wall_s"`
	} `json:"meta"`
	Passes []*report `json:"passes"`
}

func main() {
	// proc-sharded sessions re-execute this binary as their workers.
	wire.MaybeWorker()
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", runSeconds, "measuring time per pass")
		trace    = flag.Int("trace", 0, "1 = traced per-layer pass, 0 = end-to-end pass")
		traceDir = flag.String("trace-dir", "", "with all workloads: also run the traced pass and write trace-<workload>.json and layers-<workload>.json here; with -trace 1: write them here")
		out      = flag.String("out", "", "write run metadata, every pass's checks, metrics and raw samples to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments and exit")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *spec:
		b, _ := json.MarshalIndent(benchmarkSpec(), "", "  ")
		fmt.Println(string(b))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	moduleDir, err := enterWorkDir(out, traceDir)
	if err != nil {
		fatal(err)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if err := registerTraced(); err != nil {
		fatal(err)
	}
	var res results
	res.Meta.Go, res.Meta.NumCPU, res.Meta.GOMAXPROCS = runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)
	res.Meta.Commit, res.Meta.Seed, res.Meta.Seconds = gitCommit(moduleDir), *seed, *seconds
	budget := time.Duration(*seconds * float64(time.Second))
	start := time.Now()

	if *workload != "" {
		rep, err := runPass(moduleDir, *workload, *trace == 1, *seed, budget, *traceDir)
		if err != nil {
			fatal(err)
		}
		res.Passes = append(res.Passes, rep)
	} else {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				if traced && *traceDir == "" {
					continue
				}
				rep, err := runPass(moduleDir, w.Name, traced, *seed, budget, *traceDir)
				if err != nil {
					fatal(err)
				}
				res.Passes = append(res.Passes, rep)
			}
		}
	}
	res.Meta.WallS = time.Since(start).Seconds()

	// One result line closes the output: the single pass's own, or with
	// several passes their totals and metrics prefixed by workload.
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, rep := range res.Passes {
		rep.printTable(os.Stdout)
		l := rep.resultLine()
		line.Correct = line.Correct && l.Correct
		line.Attempted += l.Attempted
		line.Failed += l.Failed
		for name, m := range l.Metrics {
			if len(res.Passes) > 1 {
				name = rep.Workload + "." + name
			}
			line.Metrics[name] = m
		}
	}
	if *out != "" {
		if err := writeJSONFile(*out, res); err != nil {
			fatal(err)
		}
	}
	fmt.Println(string(mustJSON(line)))
	if !line.Correct {
		os.Exit(1)
	}
}

// runPass runs one pass of one workload and returns its report; an error
// means the workload name is unknown. A failure inside the pass is part
// of the report.
func runPass(moduleDir, name string, traced bool, seed uint64, budget time.Duration, traceDir string) (*report, error) {
	rep := newReport(name, traced, seed)
	t0 := time.Now()
	var err error
	switch w := findTrainWorkload(name); {
	case w != nil && traced:
		err = w.runTrainTraced(moduleDir, &serveMix, seed, budget, traceDir, rep)
	case w != nil:
		err = w.runTrain(seed, budget, rep)
	case name == "serve-mix" && traced:
		err = serveMix.runTraced(moduleDir, seed, budget, traceDir, rep)
	case name == "serve-mix":
		err = serveMix.run(moduleDir, seed, budget, rep)
	default:
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if err != nil {
		rep.Error = err.Error()
	}
	rep.WallS = time.Since(t0).Seconds()
	rep.finish()
	return rep, nil
}

// enterWorkDir makes the benchmark's scratch directory current — build
// outputs and socket directories go there, by relative path — and returns
// the module directory the process started in. Output paths given on the
// command line are made absolute first so they keep their meaning.
func enterWorkDir(paths ...*string) (string, error) {
	moduleDir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(moduleDir, "go.mod")); err != nil {
		return "", fmt.Errorf("run from the benchmark directory (go run -C benchmark .): %w", err)
	}
	for _, p := range paths {
		if *p != "" {
			if *p, err = filepath.Abs(*p); err != nil {
				return "", err
			}
		}
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return moduleDir, os.Chdir(workDir)
}

// gitCommit is the repository's HEAD, or "unknown" outside a git checkout.
func gitCommit(dir string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

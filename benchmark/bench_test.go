package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

var testModuleDir string

func TestMain(m *testing.M) {
	// Miniature wire-yelp and proc jobs re-execute the test binary as
	// their worker processes.
	wire.MaybeWorker()
	var err error
	if testModuleDir, err = enterWorkDir(); err == nil {
		err = registerTraced()
	}
	if err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON pins the committed BENCHMARK.json to the metric tables
// and to the limits of the contract it is checked against.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(testModuleDir, "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var committed, generated any
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mustJSON(benchmarkSpec()), &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, generated) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with `go run -C benchmark . -spec > BENCHMARK.json`")
	}

	spec := benchmarkSpec()
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	direction := func(d metricDef) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		direction(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		name(d.Name)
		direction(d)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
}

// miniature shrinks a training workload to a few hundred nodes and three
// epochs per session.
func miniature(w trainSpec) trainSpec {
	w.scale = 0.05
	w.epochs = 3
	return w
}

var miniServe = serveSpec{
	epochs: 5, paceShare: serveMix.paceShare,
	kinds: []jobKind{
		{"vanilla", 1, serveMix.kinds[0].spec},
		{"adaqp", 1, serveMix.kinds[1].spec},
		{"sancus", 1, serveMix.kinds[2].spec},
		{"proc", 1, serveMix.kinds[3].spec},
	},
}

// checkReport fails the test unless the pass ran clean and emitted every
// declared metric exactly once, with its declared unit.
func checkReport(t *testing.T, rep *report, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s traced=%v: %v", rep.Workload, rep.Traced, err)
	}
	rep.finish()
	for _, c := range rep.Checks {
		if c.Failed > 0 {
			t.Errorf("%s traced=%v: check %q failed %d of %d: %s", rep.Workload, rep.Traced, c.Name, c.Failed, c.Attempted, c.Detail)
		}
	}
	if len(rep.Metrics) != len(rep.defs) {
		t.Errorf("%s traced=%v: %d metrics emitted, %d declared", rep.Workload, rep.Traced, len(rep.Metrics), len(rep.defs))
	}
	for _, d := range rep.defs {
		if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s traced=%v: metric %s: emitted=%v unit %q, declared unit %q", rep.Workload, rep.Traced, d.Name, ok, m.Unit, d.Unit)
		}
	}
	line := rep.resultLine()
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("%s traced=%v: result line %+v", rep.Workload, rep.Traced, line)
	}
}

// TestMiniatureWorkloads runs both passes of all four workloads at
// miniature size, then checks that nothing outlives them: no goroutine,
// no child process, no run-* socket directory.
func TestMiniatureWorkloads(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	traceDir := t.TempDir()
	for _, full := range trainWorkloads {
		w := miniature(full)
		rep := newReport(w.name, false, 7)
		checkReport(t, rep, w.runTrain(7, 0, rep))
		rep = newReport(w.name, true, 7)
		checkReport(t, rep, w.runTrainTraced(testModuleDir, &miniServe, 7, 0, traceDir, rep))
	}
	rep := newReport("serve-mix", false, 7)
	checkReport(t, rep, miniServe.run(testModuleDir, 7, 0, rep))
	rep = newReport("serve-mix", true, 7)
	checkReport(t, rep, miniServe.runTraced(testModuleDir, 7, 0, traceDir, rep))

	for _, w := range workloads {
		var doc struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		raw, err := os.ReadFile(filepath.Join(traceDir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("trace-%s.json: %d events, err %v", w.Name, len(doc.TraceEvents), err)
		}
		if _, err := os.Stat(filepath.Join(traceDir, "layers-"+w.Name+".json")); err != nil {
			t.Error(err)
		}
	}

	// Idle HTTP connections and finished device goroutines wind down
	// asynchronously; give them a moment before calling it a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines outlive the passes (had %d)\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
	var ws syscall.WaitStatus
	if pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil); err != syscall.ECHILD {
		t.Errorf("a child process outlives the passes: wait4 = %d, %v", pid, err)
	}
	if left, _ := filepath.Glob(filepath.Join(socketDir, "run-*")); len(left) > 0 {
		t.Errorf("socket directories outlive the passes: %v", left)
	}
}

// TestSelfTimes checks the span arithmetic on a hand-built device track:
// nested children are subtracted once, overlapping split-phase children
// are not subtracted twice, and nothing goes negative.
func TestSelfTimes(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{Name: "codec.Forward", Start: us(0), End: us(100), Parent: -1},
		{Name: "StartBroadcast", Start: us(10), End: us(60), Parent: 0, Async: true},
		{Name: "StartBroadcast", Start: us(20), End: us(80), Parent: 0, Async: true},
		{Name: "Barrier", Start: us(85), End: us(95), Parent: 0},
		{Name: "AllReduceSum", Start: us(100), End: us(130), Parent: -1},
	}
	want := []time.Duration{us(20), us(50), us(60), us(10), us(30)}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestJobSequence(t *testing.T) {
	a, b := serveMix.jobSequence(3, 60), serveMix.jobSequence(3, 60)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gives different job sequences")
	}
	if reflect.DeepEqual(a, serveMix.jobSequence(4, 60)) {
		t.Error("different seeds give the same job sequence")
	}
	cycle := serveMix.cycleJobs()
	for c := 0; c+cycle <= len(a); c += cycle {
		count := map[string]int{}
		for _, j := range a[c : c+cycle] {
			count[j.kind]++
		}
		for _, k := range serveMix.kinds {
			if count[k.name] != k.perCycle {
				t.Errorf("cycle %d has %d %s jobs, want %d", c/cycle, count[k.name], k.name, k.perCycle)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	host := metricDef{Name: "host_epoch_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	rate := metricDef{Name: "work_epochs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	sim := metricDef{Name: "sim_wallclock_s", Unit: "sim_s", Better: "lower", Bound: 0.05}
	for _, c := range []struct {
		d        metricDef
		a, b     float64
		sameSeed bool
		want     string
	}{
		{host, 100, 105, true, "same"},
		{host, 100, 111, true, "worse"},
		{host, 100, 89, true, "better"},
		{rate, 10, 8.9, true, "worse"},
		{rate, 10, 11.1, true, "better"},
		{sim, 1, 1, true, "same"},
		{sim, 1, 1.0000001, true, "worse"},
		{sim, 1, 0.9999999, true, "better"},
		{sim, 1, 1.01, false, "same"},
	} {
		if got := judge(c.d, c.a, c.b, c.sameSeed); got != c.want {
			t.Errorf("judge(%s, %v, %v, sameSeed=%v) = %s, want %s", c.d.Name, c.a, c.b, c.sameSeed, got, c.want)
		}
	}

	// Two result files: B is 40 % slower on one metric and lacks a workload.
	file := func(epochMS float64, names ...string) string {
		var r results
		r.Meta.Seed = 1
		for _, n := range names {
			rep := newReport(n, false, 1)
			for _, d := range endToEnd {
				rep.set(d.Name, 1)
			}
			rep.set("host_epoch_ms", epochMS)
			r.Passes = append(r.Passes, rep)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeJSONFile(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	worse, err := compareFiles(&out, file(100, "paper-products", "halo-reddit"), file(140, "paper-products"))
	if err != nil || !worse {
		t.Fatalf("compareFiles: worse=%v err=%v\n%s", worse, err, out.String())
	}
	for _, want := range []string{"worse", "same", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks a %q row:\n%s", want, out.String())
		}
	}
}

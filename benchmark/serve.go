package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/tensor"
	"repro/pkg/adaqp"
)

// serve-mix drives the adaqpd binary over loopback HTTP: the user-visible
// path from job submission to result.

const (
	pollEvery   = 2 * time.Millisecond
	serveClient = 2 // closed-loop clients; nproc is 2
	// Every job trains on 4 parts with hidden 32.
	jobParts  = 4
	jobHidden = 32
)

// jobKind is one kind of job in a traffic mix.
type jobKind struct {
	name     string
	perCycle int
	spec     adaqp.JobSpec
}

// serveSpec declares the serving workload: a cycle holds exactly perCycle
// jobs of each kind, alternating over the two tiny datasets, so every
// cycle does the same simulated work whatever the seed; the seed picks
// the order and each job's training seed.
type serveSpec struct {
	kinds  []jobKind
	epochs int
	// paceShare is the share of the job loop's host time that scales
	// with the reference kernel (reference.go).
	paceShare float64
}

// serveMix is the serve-mix workload's traffic: 40 % vanilla, 30 % adaqp,
// 15 % sancus on sharded-async with overlap, 15 % adaqp on proc-sharded.
var serveMix = serveSpec{
	epochs: 20, paceShare: 0.75,
	kinds: []jobKind{
		{"vanilla", 8, adaqp.JobSpec{Method: "vanilla"}},
		{"adaqp", 6, adaqp.JobSpec{Method: "adaqp", ReassignPeriod: 5}},
		{"sancus", 3, adaqp.JobSpec{Method: "sancus", Transport: adaqp.TransportShardedAsync, Overlap: true}},
		{"proc", 3, adaqp.JobSpec{Method: "adaqp", ReassignPeriod: 5,
			Transport: adaqp.TransportProcSharded, Workers: 2, SocketDir: socketDir}},
	},
}

func (m *serveSpec) cycleJobs() int {
	n := 0
	for _, k := range m.kinds {
		n += k.perCycle
	}
	return n
}

// blockJobs is how many jobs run between two readings of the machine's
// pace: half a cycle, a second or two.
func (m *serveSpec) blockJobs() int { return max(m.cycleJobs()/2, 1) }

type job struct {
	kind string
	spec adaqp.JobSpec
}

func (j job) key() string { return string(mustJSON(j.spec)) }

// jobSequence is the endless seed-determined job stream, cut at n jobs.
func (m *serveSpec) jobSequence(seed uint64, n int) []job {
	rng := tensor.NewRNG(seed*0x9e3779b97f4a7c15 + 0x5e7e)
	trainSeeds := []uint64{seed*2 + 1, seed*2 + 2}
	var jobs []job
	for cycle := 0; len(jobs) < n; cycle++ {
		var block []job
		for _, k := range m.kinds {
			for i := 0; i < k.perCycle; i++ {
				spec := k.spec
				// Alternate datasets, flipping the odd one out each cycle.
				spec.Dataset = []string{"tiny", "tiny-multi"}[(i+cycle)%2]
				spec.Parts, spec.Hidden, spec.Epochs = jobParts, jobHidden, m.epochs
				spec.Seed = trainSeeds[rng.Intn(len(trainSeeds))]
				block = append(block, job{kind: k.name, spec: spec})
			}
		}
		for i, p := range rng.Perm(len(block)) {
			block[i], block[p] = block[p], block[i]
		}
		jobs = append(jobs, block...)
	}
	return jobs[:n]
}

// ---- the daemon process ----

// workDir is where build outputs and sockets go; main chdirs into it.
const workDir = ".work"

// buildDaemon compiles cmd/adaqpd from the repository the benchmark
// module replaces; moduleDir is the benchmark's own directory.
func buildDaemon(moduleDir string) (string, error) {
	bin, err := filepath.Abs("adaqpd")
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/adaqpd")
	cmd.Dir = moduleDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build adaqpd: %v\n%s", err, out)
	}
	return bin, nil
}

type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	stderr  bytes.Buffer
	startMS float64 // exec → first /healthz 200
}

func startDaemon(bin string) (*daemon, error) {
	// The daemon prints the address it was given, not the one it bound,
	// so a free port is picked here rather than with ":0".
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{base: "http://" + addr, client: &http.Client{Timeout: 30 * time.Second}}
	d.cmd = exec.Command(bin, "-addr", addr, "-max-concurrent", "1", "-queue-depth", "4")
	d.cmd.Stderr = &d.stderr
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start adaqpd: %w", err)
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.kill()
			return nil, fmt.Errorf("adaqpd not healthy after 10s: %v\n%s", err, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.startMS = ms(time.Since(t0))
	return d, nil
}

// stop drains the daemon (SIGTERM) and waits for it to exit.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.kill()
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("adaqpd exit: %v\n%s", err, d.stderr.String())
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("adaqpd did not drain in 20s; killed")
	}
}

func (d *daemon) kill() error {
	d.cmd.Process.Kill()
	return d.cmd.Wait()
}

// ---- one job through the HTTP API ----

// jobRecord is one job as its client saw it.
type jobRecord struct {
	kind     string
	key      string
	begun    time.Time // first POST attempt
	finished time.Time // result body read
	submitMS float64
	resultMS float64
	pollMS   []float64
	rejected int // 429 responses
	// Daemon-side timestamps from the status document.
	queueWaitMS, runMS float64
	result             jobResult
	err                error
	// stretch is how much longer than at nominal machine speed this
	// job's block ran (1 when the loop is not paced).
	stretch float64
}

func (r *jobRecord) latencyMS() float64 { return ms(r.finished.Sub(r.begun)) }

// jobStatus and jobResult mirror the daemon's JSON documents.
type jobStatus struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Submitted string `json:"submitted_at"`
	Started   string `json:"started_at"`
	Finished  string `json:"finished_at"`
	Error     string `json:"error"`
}

type jobResult struct {
	Epochs     int     `json:"epochs"`
	FinalLoss  float64 `json:"final_loss"`
	WallClock  float64 `json:"wall_clock_s"`
	AssignTime float64 `json:"assign_s"`
	FinalTest  float64 `json:"final_test"`
}

func (d *daemon) getJSON(path string, v any) (int, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

const maxSubmitAttempts = 5

// runJob submits j, polls until it is terminal and reads its result.
func (d *daemon) runJob(j job) jobRecord {
	rec := jobRecord{kind: j.kind, key: j.key(), begun: time.Now()}
	body := mustJSON(j.spec)
	var st jobStatus
	for attempt := 1; ; attempt++ {
		t0 := time.Now()
		resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			rec.err = err
			return rec
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.submitMS = ms(time.Since(t0))
		if resp.StatusCode == http.StatusAccepted {
			if rec.err = json.Unmarshal(reply, &st); rec.err != nil {
				return rec
			}
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt == maxSubmitAttempts {
			rec.err = fmt.Errorf("POST /jobs: %d %s", resp.StatusCode, bytes.TrimSpace(reply))
			return rec
		}
		rec.rejected++
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		time.Sleep(time.Duration(max(secs, 1)) * time.Second)
	}
	for st.Status == "queued" || st.Status == "running" {
		time.Sleep(pollEvery)
		t0 := time.Now()
		if _, rec.err = d.getJSON("/jobs/"+st.ID, &st); rec.err != nil {
			return rec
		}
		rec.pollMS = append(rec.pollMS, ms(time.Since(t0)))
	}
	if st.Status != "done" {
		rec.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.Status, st.Error)
		return rec
	}
	t0 := time.Now()
	_, rec.err = d.getJSON("/jobs/"+st.ID+"/result", &rec.result)
	rec.finished = time.Now()
	rec.resultMS = ms(rec.finished.Sub(t0))
	sub, e1 := time.Parse(time.RFC3339Nano, st.Submitted)
	sta, e2 := time.Parse(time.RFC3339Nano, st.Started)
	fin, e3 := time.Parse(time.RFC3339Nano, st.Finished)
	if rec.err == nil && (e1 != nil || e2 != nil || e3 != nil) {
		rec.err = fmt.Errorf("job %s status has unparsable timestamps", st.ID)
	}
	rec.queueWaitMS, rec.runMS = ms(sta.Sub(sub)), ms(fin.Sub(sta))
	return rec
}

// runJobs feeds jobs, block by block, to serveClient closed-loop clients
// sharing a keep-alive connection pool, until minJobs are done and the
// budget is spent (or the sequence ends). After each block the clients
// meet, so the first jobs of a block find the queue empty. With a pace,
// each record carries its block's stretch; without, 1.
// Records come back in job order.
func (d *daemon) runJobs(jobs []job, blockJobs, minJobs int, budget time.Duration, p *pace, paceShare float64) []jobRecord {
	var recs []jobRecord
	start := time.Now()
	if p != nil {
		p.slowness()
	}
	for len(recs) < len(jobs) && (len(recs) < minJobs || time.Since(start) < budget) {
		block := jobs[len(recs):min(len(recs)+blockJobs, len(jobs))]
		out := make([]jobRecord, len(block))
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < serveClient; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(block); i = int(next.Add(1)) - 1 {
					out[i] = d.runJob(block[i])
				}
			}()
		}
		wg.Wait()
		by := 1.0
		if p != nil {
			by = stretch(paceShare, p.slowness())
		}
		for i := range out {
			out[i].stretch = by
		}
		recs = append(recs, out...)
	}
	return recs
}

// ---- in-process reference ----

// referenceRuns trains each JobSpec once through an in-process
// scheduler's SubmitSpec — the call the daemon makes — with extra options
// appended (the traced pass swaps in traced transports), calling each
// after every run.
func referenceRuns(specs []adaqp.JobSpec, each func(adaqp.JobSpec, *adaqp.Result), extra ...adaqp.Option) error {
	sched, err := adaqp.NewScheduler(adaqp.WithMaxConcurrentSessions(1))
	if err != nil {
		return err
	}
	defer sched.Drain(context.Background())
	for _, spec := range specs {
		h, err := sched.SubmitSpec(spec, extra...)
		if err != nil {
			return fmt.Errorf("reference SubmitSpec: %w", err)
		}
		res, err := h.Wait(context.Background())
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		each(spec, res)
	}
	return nil
}

// distinctSpecs lists each different JobSpec among recs' jobs once, in
// first-seen order.
func distinctSpecs(jobs []job) []adaqp.JobSpec {
	seen := map[string]bool{}
	var out []adaqp.JobSpec
	for _, j := range jobs {
		if k := j.key(); !seen[k] {
			seen[k] = true
			out = append(out, j.spec)
		}
	}
	return out
}

// checkJobs is the serve-mix correctness gate: every job ends done and
// reports the final loss and simulated wall-clock of the same JobSpec run
// in-process.
func checkJobs(jobs []job, recs []jobRecord, rep *report) error {
	type ref struct{ loss, wall float64 }
	refs := map[string]ref{}
	err := referenceRuns(distinctSpecs(jobs[:len(recs)]), func(spec adaqp.JobSpec, res *adaqp.Result) {
		refs[string(mustJSON(spec))] = ref{res.Epochs[len(res.Epochs)-1].Loss, float64(res.WallClock)}
	})
	if err != nil {
		return err
	}
	for _, r := range recs {
		rep.attempt("job completes", r.err)
		if r.err != nil {
			continue
		}
		var err error
		if want := refs[r.key]; r.result.FinalLoss != want.loss || r.result.WallClock != want.wall {
			err = fmt.Errorf("%s job: loss %v wall-clock %v, in-process %v %v",
				r.kind, r.result.FinalLoss, r.result.WallClock, want.loss, want.wall)
		}
		rep.attempt("job equals in-process SubmitSpec", err)
	}
	return nil
}

// ---- reduction ----

// byKind reduces one per-job value to a single number that does not
// depend on which kinds happen to be fast: the median of each kind,
// weighted by the kind's share of the mix.
func (m *serveSpec) byKind(recs []jobRecord, value func(*jobRecord) float64) float64 {
	var total float64
	for _, k := range m.kinds {
		total += float64(k.perCycle) / float64(m.cycleJobs()) * kindMedian(recs, k.name, value)
	}
	return total
}

func kindMedian(recs []jobRecord, kind string, value func(*jobRecord) float64) float64 {
	var xs []float64
	for i := range recs {
		if recs[i].kind == kind && recs[i].err == nil {
			xs = append(xs, value(&recs[i]))
		}
	}
	return median(xs)
}

// blockThroughput is, for each block of jobs, its training epochs over
// its wall time at nominal machine speed.
func (m *serveSpec) blockThroughput(recs []jobRecord) []float64 {
	var out []float64
	n := m.blockJobs()
	for lo := 0; lo+n <= len(recs); lo += n {
		block := recs[lo : lo+n]
		first, last := block[0].begun, block[0].finished
		for _, r := range block {
			if r.begun.Before(first) {
				first = r.begun
			}
			if r.finished.After(last) {
				last = r.finished
			}
		}
		out = append(out, float64(n*m.epochs)/(last.Sub(first).Seconds()/block[0].stretch))
	}
	return out
}

// simOver sums the simulated clock over recs: epochs per simulated second
// (assignment stalls excluded, as Result.Throughput does) and total
// simulated wall-clock.
func simOver(recs []jobRecord, kind string) (epochsPerS, wallS float64) {
	var epochs, busy float64
	for _, r := range recs {
		if r.err != nil || (kind != "" && r.kind != kind) {
			continue
		}
		epochs += float64(r.result.Epochs)
		busy += r.result.WallClock - r.result.AssignTime
		wallS += r.result.WallClock
	}
	return epochs / busy, wallS
}

// daemonSetup is one serve-mix set-up: daemon exec → /healthz 200 → one
// warm job per dataset.
func (m *serveSpec) daemonSetup(bin string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, 0, err
	}
	for _, ds := range []string{"tiny", "tiny-multi"} {
		warm := job{kind: "warm", spec: adaqp.JobSpec{Dataset: ds, Parts: jobParts, Hidden: jobHidden, Epochs: m.epochs}}
		if rec := d.runJob(warm); rec.err != nil {
			d.kill()
			return nil, 0, fmt.Errorf("warm job: %w", rec.err)
		}
	}
	return d, time.Since(t0), nil
}

// run is the untraced serve-mix pass.
func (m *serveSpec) run(moduleDir string, seed uint64, budget time.Duration, rep *report) error {
	bin, err := buildDaemon(moduleDir) // build time is not part of any metric
	if err != nil {
		return err
	}
	p := startPace()
	var d *daemon
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		p.slowness() // a fresh reading right before
		var took time.Duration
		if d, took, err = m.daemonSetup(bin); err != nil {
			return err
		}
		setups = append(setups, took.Seconds()/stretch(m.paceShare, p.slowness()))
	}
	// Enough jobs for a machine several times faster than the probe one.
	cycle := m.cycleJobs()
	jobs := m.jobSequence(seed, 100*cycle)
	recs := d.runJobs(jobs, m.blockJobs(), 2*cycle, budget, p, m.paceShare)
	if err := d.stop(); err != nil {
		return err
	}
	if err := checkJobs(jobs, recs, rep); err != nil {
		return err
	}

	latency := func(r *jobRecord) float64 { return r.latencyMS() / r.stretch }
	run := func(r *jobRecord) float64 { return r.runMS / r.stretch }
	first := recs[:cycle]
	simThr, simWall := simOver(first, "")
	adaThr, _ := simOver(first, "adaqp")
	vanThr, _ := simOver(first, "vanilla")
	thr := m.blockThroughput(recs)
	rep.set("setup_s", median(setups))
	rep.set("host_epoch_ms", m.byKind(recs, run)/float64(m.epochs))
	rep.set("host_run_s", m.byKind(recs, latency)/1e3)
	rep.set("host_ratio_vs_baseline", m.byKind(recs, latency)/m.byKind(recs, run))
	rep.set("work_epochs_per_s", median(thr))
	rep.set("sim_epochs_per_s", simThr)
	rep.set("sim_wallclock_s", simWall)
	rep.set("sim_speedup_vs_baseline", adaThr/vanThr)
	rep.note("jobs", float64(len(recs)))
	rep.note("jobs_per_s", median(thr)/float64(m.epochs))
	rep.note("reference_ms_p50", median(p.all))
	var lat []float64
	for i := range recs {
		lat = append(lat, latency(&recs[i]))
	}
	rep.samples("job_latency_ms", lat)
	rep.samples("block_epochs_per_s", thr)
	rep.samples("setup_s", setups)
	rep.samples("reference_ms", p.all)
	return nil
}

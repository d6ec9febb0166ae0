package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/pkg/adaqp"
)

// The traced pass produces the per-layer ledger of one workload: traced
// sessions (spans at the codec and transport seams), the kernel replay,
// and standalone probes of the layers the workload itself does not load.

// setupStages times the set-up layers one by one by calling their
// exported functions on the dataset load returns.
func setupStages(rep *report, load func() (*adaqp.Dataset, error), parts int, strategy adaqp.Strategy) (*adaqp.Dataset, error) {
	t0 := time.Now()
	ds, err := load()
	if err != nil {
		return nil, err
	}
	rep.set("synthetic.load_ms", ms(time.Since(t0)))

	g := ds.Graph.WithSelfLoops()
	t0 = time.Now()
	a := partition.Partition(g, parts, strategy)
	rep.set("partition.partition_ms", ms(time.Since(t0)))
	t0 = time.Now()
	partition.WireSendSets(partition.Build(g, a, graph.NormSym))
	rep.set("partition.build_ms", ms(time.Since(t0)))
	return ds, nil
}

func deployStats(rep *report, eng *adaqp.Engine) *adaqp.Deployment {
	t0 := time.Now()
	dep := eng.Deployment()
	rep.set("core.deploy_ms", ms(time.Since(t0)))
	halo := 0
	for _, h := range dep.Stats.HaloPerPart {
		halo += h
	}
	rep.set("partition.marginal_share", dep.Stats.MarginalFraction)
	rep.set("partition.edge_cut_share", float64(dep.Stats.EdgeCut)/float64(dep.Stats.TotalEdges))
	rep.set("partition.halo_rows", float64(halo))
	return dep
}

// tracedSession is one traced run with what it produced.
type tracedSession struct {
	label string
	rec   *recorder
	res   *adaqp.Result
}

// checkTraced gates one traced session: spans nest with non-negative self
// times, the bytes seen at the transport seam equal the run's own ledger,
// and tracing did not change the outcome.
func checkTraced(rep *report, t tracedSession, l ledger, untraced *adaqp.Result) {
	rep.attempt("spans nest and self times are non-negative", l.err)
	var err error
	if want := totalBytes(t.res); l.ledgerBytes != want {
		err = fmt.Errorf("%s: traced %d bytes, BytesMoved %d", t.label, l.ledgerBytes, want)
	}
	rep.attempt("traced bytes equal BytesMoved", err)
	rep.attempt("traced run equals untraced run", sameOutcome(untraced, t.res))
}

// ledgerMetrics emits the traced-span metrics.
func ledgerMetrics(rep *report, l ledger) {
	for _, d := range perLayer {
		if v, ok := l.vals[d.Name]; ok {
			rep.set(d.Name, v)
		}
	}
	// A metric no span fed (a collective the workload never calls) is a
	// measured zero.
	for _, name := range collectiveMetric {
		if _, ok := l.vals[name]; !ok {
			rep.set(name, 0)
		}
	}
	for _, name := range codecMetric {
		if _, ok := l.vals[name]; !ok {
			rep.set(name, 0)
		}
	}
}

// simMetrics emits the modelled-hardware breakdown: per-device means of
// the results' phases, weighted.
func simMetrics(rep *report, results []*adaqp.Result, weights []float64) {
	var comm, comp, qt, idle, assign, overlap, total float64
	for i, res := range results {
		phases := res.Phases()
		w := weights[i] / float64(len(phases))
		for _, p := range phases {
			comm += w * float64(p.Comm)
			comp += w * float64(p.Comp)
			qt += w * float64(p.Quant)
			idle += w * float64(p.Idle)
			assign += w * float64(p.Assign)
			overlap += w * float64(p.Overlap)
		}
		total += weights[i]
	}
	rep.set("sim.comm_s", comm/total)
	rep.set("sim.comp_s", comp/total)
	rep.set("sim.quant_s", qt/total)
	rep.set("sim.idle_s", idle/total)
	rep.set("sim.assign_s", assign/total)
	rep.set("sim.overlap_s", overlap/total)
	rep.set("sim.comm_share", comm/(comm+comp+qt+idle+assign))
}

// replayMetrics runs the kernel replay and the standalone wire and
// machine probes. It returns the CPU ms per epoch the replayed layers
// account for — tensor, graph, nn, and quantShare of quant (the share of
// epochs whose codec quantizes) — for the ledger-coverage ratio.
func replayMetrics(rep *report, s *replayShape, seed uint64, quantShare float64) (float64, error) {
	rng := tensor.NewRNG(seed ^ 0x7e91a)
	t := s.replayTensor(rng)
	rep.set("tensor.matmul_gflops", t.matmulFlop/(t.matmul.wallMS*1e6))
	rep.set("tensor.tmatmul_gflops", t.tmatmulFlop/(t.tmatmul.wallMS*1e6))
	rep.set("tensor.matmult_gflops", t.matmultFlop/(t.matmult.wallMS*1e6))
	rep.set("tensor.axpy_gbps", t.axpyGBps)
	// Evaluation epochs run the forward pass again.
	tensorMS := t.matmul.times(1 + s.evalShare).plus(t.tmatmul).plus(t.matmult).cpuMS
	rep.set("tensor.replay_ms_per_epoch", tensorMS)

	g := s.replayGraph(rng)
	rep.set("graph.spmm_gflops", g.spmmFlop/(g.spmm.wallMS*1e6))
	rep.set("graph.spmmt_gflops", g.spmmtFlop/(g.spmmt.wallMS*1e6))
	graphMS := g.spmm.times(1 + s.evalShare).plus(g.spmmt).cpuMS
	rep.set("graph.replay_ms_per_epoch", graphMS)

	n := s.replayNN(rng)
	elementwise := n.elementwiseFwd.plus(n.elementwiseBwd).cpuMS
	rep.set("nn.elementwise_replay_ms_per_epoch", elementwise)
	rep.set("nn.adam_step_ms", n.adam.wallMS)
	rep.set("nn.loss_ms", n.loss.wallMS)

	q, err := s.replayQuant(rng)
	if err != nil {
		return 0, fmt.Errorf("quant replay: %w", err)
	}
	for _, b := range []quant.BitWidth{quant.B2, quant.B4, quant.B8} {
		rep.set(fmt.Sprintf("quant.quantize_b%d_gbps", b), q.quantGBps[b])
		rep.set(fmt.Sprintf("quant.dequantize_b%d_gbps", b), q.dequantGBps[b])
	}
	rep.set("quant.mixed_quantize_gbps", q.mixedQuantGBps)
	rep.set("quant.mixed_dequantize_gbps", q.mixedDequantGBps)
	rep.set("quant.replay_ms_per_epoch", q.replay.cpuMS)
	rep.set("quant.allocs_per_op", q.allocsPerOp)

	a := s.replayAssign()
	rep.set("bitassign.solve_ms", a.solveMS)
	rep.set("bitassign.groups", float64(a.groups))
	rep.set("bitassign.objective", a.objective)

	w, err := s.replayWire()
	if err != nil {
		return 0, fmt.Errorf("wire probe: %w", err)
	}
	rep.set("wire.append_frame_gbps", w.appendGBps)
	rep.set("wire.parse_frame_gbps", w.parseGBps)
	rep.set("wire.pool_start_ms", w.startMS)
	rep.set("wire.pool_shutdown_ms", w.shutdownMS)
	rep.set("wire.pool_roundtrip_us_p50", w.roundtripUS)
	rep.set("wire.pool_stream_mbps", w.streamMBps)

	copyGBps, fmaGFlops := machineCeiling()
	rep.set("machine.copy_gbps", copyGBps)
	rep.set("machine.fma_gflops", fmaGFlops)
	rep.set("machine.reference_ms", referenceMS())
	return tensorMS + graphMS + elementwise + n.adam.cpuMS + n.loss.cpuMS + quantShare*q.replay.cpuMS, nil
}

// coverage is trace.ledger_coverage: the CPU time per epoch the replayed
// kernels account for, over the CPU time an untraced epoch consumed
// (epoch wall time × cores × the share of them the process kept busy).
func coverage(replayCPUMS, untracedEpochMS, cpuShare float64) float64 {
	return replayCPUMS / (untracedEpochMS * float64(runtime.NumCPU()) * cpuShare)
}

// processMetrics emits the process-level diagnostics. use covers epochs
// training epochs run in this process.
func processMetrics(rep *report, cpuShare float64, use procUse, epochs int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.set("process.cpu_share", cpuShare)
	rep.set("process.alloc_mb_per_epoch", use.allocMB/float64(epochs))
	rep.set("process.allocs_per_epoch", use.allocs/float64(epochs))
	rep.set("process.gc_pause_ms_total", float64(m.PauseTotalNs)/1e6)
	rep.set("process.peak_rss_mb", peakRSSMB())
}

// daemonMetrics emits what the job loop's clients and the daemon's own
// timestamps say about the serving layers.
func (m *serveSpec) daemonMetrics(rep *report, d *daemon, recs []jobRecord) {
	var submit, poll, result, wait, run, latency []float64
	var polls, rejected, failed int
	for i := range recs {
		r := &recs[i]
		rejected += r.rejected
		if r.err != nil {
			failed++
			continue
		}
		submit = append(submit, r.submitMS)
		poll = append(poll, r.pollMS...)
		polls += len(r.pollMS)
		result = append(result, r.resultMS)
		wait = append(wait, r.queueWaitMS)
		run = append(run, r.runMS)
		latency = append(latency, r.latencyMS())
	}
	rep.set("adaqpd.start_ms", d.startMS)
	rep.set("adaqpd.submit_ms_p50", median(submit))
	rep.set("adaqpd.status_poll_ms_p50", median(poll))
	rep.set("adaqpd.result_ms_p50", median(result))
	rep.set("adaqpd.polls_per_job", float64(polls)/float64(len(run)))
	rep.set("adaqpd.rejected_429", float64(rejected))
	rep.set("adaqpd.job_latency_ms_p50", median(latency))
	rep.set("adaqpd.job_latency_ms_p95", quantile(latency, 0.95))
	span := recs[len(recs)-1].finished.Sub(recs[0].begun).Seconds()
	rep.set("adaqpd.jobs_per_s", float64(len(run))/span)
	rep.set("serve.queue_wait_ms_p50", median(wait))
	rep.set("serve.run_ms_p50", median(run))
	for _, k := range m.kinds {
		rep.set("serve.run_ms_p50."+k.name, kindMedian(recs, k.name, func(r *jobRecord) float64 { return r.runMS }))
	}
	rep.set("serve.jobs_completed", float64(len(run)))
	rep.set("serve.jobs_failed", float64(failed))
}

// probe is the standalone serving-layer probe of the training workloads:
// one cycle of the mix against a fresh daemon.
func (m *serveSpec) probe(rep *report, moduleDir string, seed uint64) error {
	bin, err := buildDaemon(moduleDir)
	if err != nil {
		return err
	}
	d, _, err := m.daemonSetup(bin)
	if err != nil {
		return err
	}
	jobs := m.jobSequence(seed, m.cycleJobs())
	recs := d.runJobs(jobs, m.blockJobs(), len(jobs), 0, nil, 0)
	if err := d.stop(); err != nil {
		return err
	}
	for _, r := range recs {
		rep.attempt("probe job completes", r.err)
	}
	m.daemonMetrics(rep, d, recs)
	return nil
}

// traceFiles writes DIR/trace-<workload>.json (Chrome / Perfetto trace
// events, one process per traced session) and DIR/layers-<workload>.json
// (the per-layer metrics).
func traceFiles(dir, workload string, sessions []tracedSession, rep *report) error {
	if dir == "" {
		return nil
	}
	var events []traceEvent
	for i, s := range sessions {
		events = append(events, s.rec.traceEvents(i+1, s.label)...)
	}
	if err := writeJSONFile(filepath.Join(dir, "trace-"+workload+".json"), map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(dir, "layers-"+workload+".json"), rep)
}

// tracedRun runs one session of kind on eng under a recorder.
func tracedRun(eng *adaqp.Engine, kind sessionKind, extra ...adaqp.Option) (tracedSession, error) {
	t := tracedSession{label: kind.label}
	traced, err := tracedOptions(kind.method, kind.transport)
	if err != nil {
		return t, err
	}
	t.rec, err = traceSession(func(hook func(adaqp.EpochStat)) error {
		opts := append(traced, adaqp.WithMethod(kind.method), adaqp.WithEpochCallback(hook))
		sess, err := eng.Session(append(opts, extra...)...)
		if err != nil {
			return err
		}
		t.res, err = sess.Run()
		return err
	})
	return t, err
}

// runTrainTraced is the traced pass of a training workload.
func (w *trainSpec) runTrainTraced(moduleDir string, probe *serveSpec, seed uint64, budget time.Duration, traceDir string, rep *report) error {
	ds, err := setupStages(rep, func() (*adaqp.Dataset, error) { return buildDataset(w.dataset, w.scale, seed) }, w.parts, w.strategy)
	if err != nil {
		return err
	}
	eng, err := adaqp.New(ds, w.engineOptions(ds, seed)...)
	if err != nil {
		return err
	}
	dep := deployStats(rep, eng)
	if _, err := eng.Run(append(w.sut.options(), adaqp.WithEpochs(warmupEpochs))...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	// Untraced and traced sessions of the system under test alternate, so
	// both see the same machine conditions; a third of the budget.
	var untracedMS []float64
	var ledgers []ledger
	var weights []float64
	var sessions []tracedSession
	var results []*adaqp.Result
	var use procUse
	var cpuShares []float64
	epochs := 0
	start := time.Now()
	for len(ledgers) == 0 || time.Since(start) < budget/3 {
		win := startProcWindow()
		plain, err := runSession(eng, w.sut)
		if err != nil {
			return fmt.Errorf("untraced %s session: %w", w.sut.label, err)
		}
		u := win.stop()
		use.allocMB += u.allocMB
		use.allocs += u.allocs
		cpuShares = append(cpuShares, u.cpuShare)
		epochs += len(plain.res.Epochs)
		untracedMS = append(untracedMS, plain.gapsMS...)

		t, err := tracedRun(eng, w.sut)
		if err != nil {
			return fmt.Errorf("traced %s session: %w", w.sut.label, err)
		}
		l := t.rec.analyze()
		checkTraced(rep, t, l, plain.res)
		ledgers, weights = append(ledgers, l), append(weights, 1)
		sessions, results = append(sessions, t), append(results, t.res)
	}
	base, err := tracedRun(eng, w.base)
	if err != nil {
		return fmt.Errorf("traced %s session: %w", w.base.label, err)
	}
	rep.attempt("spans nest and self times are non-negative", base.rec.analyze().err)
	sessions = append(sessions, base)

	l := meanLedger(ledgers, weights)
	ledgerMetrics(rep, l)
	simMetrics(rep, results, weights)
	processMetrics(rep, median(cpuShares), use, epochs)
	rep.set("quality.acc_delta_pp", accDeltaPP(results[0], base.res))
	untraced := median(untracedMS)
	rep.set("trace.overhead_share", median(dropFirstEpochs(ledgers))/untraced-1)

	// What the wire backend costs on this workload: the same short
	// fp32 session in-process and over two worker processes.
	short := adaqp.WithEpochs(warmupEpochs)
	inproc, err := runSession(eng, sessionKind{method: adaqp.Vanilla}, short)
	if err != nil {
		return err
	}
	proc, err := runSession(eng, sessionKind{method: adaqp.Vanilla,
		transport: adaqp.TransportSpec{Name: adaqp.TransportProcSharded, Workers: 2, SocketDir: socketDir}}, short)
	if err != nil {
		return err
	}
	rep.attempt("proc-sharded equals in-process", sameOutcome(inproc.res, proc.res))
	rep.set("wire.host_run_ratio_vs_inprocess", proc.run.Seconds()/inproc.run.Seconds())

	shape := &replayShape{
		locals: dep.Locals, dims: []int{ds.Features.Cols, w.hidden, w.hidden, ds.NumClasses},
		task: ds.Task, groupSize: 100, lambda: 0.5, // engine defaults
		features: ds.Features, model: adaqp.DefaultCostModel(),
	}
	if w.realNodes > 0 {
		shape.model = costModel(w.realNodes, ds.NumNodes())
	}
	if w.evalEvery > 0 {
		shape.evalShare = 1 / float64(w.evalEvery)
	}
	quantShare := 0.0
	if w.sut.method == adaqp.AdaQP {
		quantShare = 1
	}
	replayMS, err := replayMetrics(rep, shape, seed, quantShare)
	if err != nil {
		return err
	}
	rep.set("trace.ledger_coverage", coverage(replayMS, untraced, median(cpuShares)))
	if err := probe.probe(rep, moduleDir, seed); err != nil {
		return fmt.Errorf("daemon probe: %w", err)
	}
	return traceFiles(traceDir, w.name, sessions, rep)
}

// dropFirstEpochs gathers the traced epoch samples comparable with the
// untraced callback gaps, which cannot see a run's first epoch.
func dropFirstEpochs(ls []ledger) []float64 {
	var out []float64
	for _, l := range ls {
		if len(l.epochMS) > 1 {
			out = append(out, l.epochMS[1:]...)
		}
	}
	return out
}

// runTraced is the traced pass of serve-mix: the daemon's job loop
// at a third of the budget for the serving layers, then the first
// cycle's distinct JobSpecs in-process, untraced and traced, for the
// training layers underneath.
func (m *serveSpec) runTraced(moduleDir string, seed uint64, budget time.Duration, traceDir string, rep *report) error {
	load := func() (*adaqp.Dataset, error) { return adaqp.LoadDataset("tiny", 1) }
	ds, err := setupStages(rep, load, jobParts, adaqp.BlockPartition)
	if err != nil {
		return err
	}
	eng, err := adaqp.New(ds, adaqp.WithParts(jobParts), adaqp.WithHidden(jobHidden))
	if err != nil {
		return err
	}
	dep := deployStats(rep, eng)

	bin, err := buildDaemon(moduleDir)
	if err != nil {
		return err
	}
	daemonLife := startProcWindow()
	d, _, err := m.daemonSetup(bin)
	if err != nil {
		return err
	}
	cycle := m.cycleJobs()
	jobs := m.jobSequence(seed, 100*cycle)
	recs := d.runJobs(jobs, m.blockJobs(), cycle, budget/3, nil, 0)
	if err := d.stop(); err != nil {
		return err
	}
	// The daemon has been waited for, so its CPU time (and its workers')
	// now counts among this process's children.
	cpuShare := daemonLife.stop().cpuShare
	if err := checkJobs(jobs, recs, rep); err != nil {
		return err
	}
	m.daemonMetrics(rep, d, recs)
	run := func(r *jobRecord) float64 { return r.runMS }
	rep.set("wire.host_run_ratio_vs_inprocess", kindMedian(recs, "proc", run)/kindMedian(recs, "adaqp", run))

	// In-process twins of the first cycle, weighted by how often each
	// spec occurs in it.
	first := jobs[:cycle]
	count := map[string]float64{}
	for _, j := range first {
		count[j.key()]++
	}
	specs := distinctSpecs(first)
	plain := map[string]*adaqp.Result{}
	var gaps epochGaps
	epochs := 0
	win := startProcWindow()
	err = referenceRuns(specs, func(spec adaqp.JobSpec, res *adaqp.Result) {
		plain[string(mustJSON(spec))] = res
		epochs += len(res.Epochs)
		gaps.newRun()
	}, adaqp.WithEpochCallback(gaps.tick))
	if err != nil {
		return err
	}
	use := win.stop()
	untracedMS := gaps.ms

	var ledgers []ledger
	var weights []float64
	var sessions []tracedSession
	var results []*adaqp.Result
	for _, spec := range specs {
		key := string(mustJSON(spec))
		method, err := adaqp.ParseMethod(spec.Method)
		if err != nil {
			return err
		}
		traced, err := tracedOptions(method, adaqp.TransportSpec{
			Name: spec.Transport, Workers: spec.Workers, Overlap: spec.Overlap, SocketDir: spec.SocketDir})
		if err != nil {
			return err
		}
		t := tracedSession{label: spec.Method + "/" + spec.Dataset + "/" + spec.Transport}
		t.rec, err = traceSession(func(hook func(adaqp.EpochStat)) error {
			return referenceRuns([]adaqp.JobSpec{spec}, func(_ adaqp.JobSpec, res *adaqp.Result) { t.res = res },
				append(traced, adaqp.WithEpochCallback(hook))...)
		})
		if err != nil {
			return fmt.Errorf("traced reference run: %w", err)
		}
		l := t.rec.analyze()
		checkTraced(rep, t, l, plain[key])
		ledgers, weights = append(ledgers, l), append(weights, count[key])
		sessions, results = append(sessions, t), append(results, t.res)
	}
	l := meanLedger(ledgers, weights)
	ledgerMetrics(rep, l)
	simMetrics(rep, results, weights)
	processMetrics(rep, cpuShare, use, epochs)
	adaTest, vanTest := meanFinalTest(recs, "adaqp"), meanFinalTest(recs, "vanilla")
	rep.set("quality.acc_delta_pp", 100*(adaTest-vanTest))
	untraced := median(untracedMS)
	rep.set("trace.overhead_share", median(dropFirstEpochs(ledgers))/untraced-1)

	shape := &replayShape{
		locals: dep.Locals, dims: []int{ds.Features.Cols, jobHidden, jobHidden, ds.NumClasses},
		task: ds.Task, evalShare: 1.0 / 5, groupSize: 100, lambda: 0.5, // engine defaults
		features: ds.Features, model: adaqp.DefaultCostModel(),
	}
	// adaqp and proc jobs quantize; vanilla and sancus jobs do not.
	quantShare := 0.0
	for _, k := range m.kinds {
		if k.spec.Method == "adaqp" {
			quantShare += float64(k.perCycle) / float64(cycle)
		}
	}
	replayMS, err := replayMetrics(rep, shape, seed, quantShare)
	if err != nil {
		return err
	}
	rep.set("trace.ledger_coverage", coverage(replayMS, untraced, use.cpuShare))
	return traceFiles(traceDir, "serve-mix", sessions, rep)
}

func meanFinalTest(recs []jobRecord, kind string) float64 {
	var xs []float64
	for _, r := range recs {
		if r.kind == kind && r.err == nil {
			xs = append(xs, r.result.FinalTest)
		}
	}
	return mean(xs)
}

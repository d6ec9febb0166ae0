// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (internal/experiments holds
// the registry they select from), plus microbenchmarks of the hot
// substrate kernels. The macro benchmarks run the same code paths as
// `cmd/paper` at a reduced "bench" profile so `go test -bench=. -benchmem`
// finishes in minutes; use `cmd/paper -profile standard` for fuller runs.
package repro

import (
	"context"
	"errors"
	"io"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/pkg/adaqp"
)

// benchProfile is a further-reduced profile so every macro benchmark
// iteration stays in the hundreds of milliseconds.
var benchProfile = experiments.Profile{
	Name: "bench", Scale: 0.08, FeatureCap: 64, Hidden: 32,
	EpochsLong: 10, EpochsShort: 3, EvalEvery: 5, Seeds: []uint64{1},
}

// runExperiment times one registry experiment on a fresh Runner per
// iteration, so nothing is served from an earlier iteration's trainings.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exps, err := experiments.Select([]string{id})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := exps[0].Run(&experiments.Runner{Profile: benchProfile})
		if err == nil {
			err = rep.WriteText(io.Discard)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the Vanilla communication-overhead table.
func BenchmarkTable1(b *testing.B) { runExperiment(b, "t1") }

// BenchmarkTable2 regenerates the central-comp vs 2-bit-comm comparison.
func BenchmarkTable2(b *testing.B) { runExperiment(b, "t2") }

// BenchmarkFigure2 regenerates the per-device-pair data-size figure.
func BenchmarkFigure2(b *testing.B) { runExperiment(b, "f2") }

// BenchmarkFigure3 regenerates the all-vs-marginal computation figure.
func BenchmarkFigure3(b *testing.B) { runExperiment(b, "f3") }

// BenchmarkTable4 regenerates the headline accuracy/throughput comparison.
func BenchmarkTable4(b *testing.B) { runExperiment(b, "t4") }

// BenchmarkTable5And9 regenerates the wall-clock comparison tables.
func BenchmarkTable5And9(b *testing.B) { runExperiment(b, "t5") }

// BenchmarkTable6 regenerates the uniform-vs-adaptive ablation.
func BenchmarkTable6(b *testing.B) { runExperiment(b, "t6") }

// BenchmarkTable7 regenerates the 24-device scalability table.
func BenchmarkTable7(b *testing.B) { runExperiment(b, "t7") }

// BenchmarkFigure9 regenerates the convergence-curve series (Reddit +
// products subset; Figure 12 is the same view over all datasets).
func BenchmarkFigure9(b *testing.B) { runExperiment(b, "f9") }

// BenchmarkFigure10 regenerates the time-breakdown figure.
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "f10") }

// BenchmarkFigure11 regenerates the sensitivity sweeps.
func BenchmarkFigure11(b *testing.B) { runExperiment(b, "f11") }

// ---- substrate microbenchmarks ----

func BenchmarkMatMul256(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.New(1024, 256)
	w := tensor.New(256, 256)
	x.FillUniform(rng, -1, 1)
	w.FillUniform(rng, -1, 1)
	out := tensor.New(1024, 256)
	b.SetBytes(int64(4 * 1024 * 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, x, w)
	}
}

func BenchmarkSpMM(b *testing.B) {
	ds := synthetic.MustLoad("products-sim", 0.25)
	g := ds.Graph.WithSelfLoops()
	g.NormalizeWeights(graph.NormSym)
	x := tensor.New(g.N, 64)
	x.FillUniform(tensor.NewRNG(1), -1, 1)
	out := tensor.New(g.N, 64)
	b.SetBytes(int64(8 * g.NumEdges()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SpMM(out, x)
	}
}

func BenchmarkQuantize2Bit(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.New(1000, 256)
	x.FillUniform(rng, -1, 1)
	b.SetBytes(int64(4 * 1000 * 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.QuantizeRows(x, nil, quant.B2, rng)
	}
}

func BenchmarkDequantize2Bit(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.New(1000, 256)
	x.FillUniform(rng, -1, 1)
	stream := quant.QuantizeRows(x, nil, quant.B2, rng)
	dst := tensor.New(1000, 256)
	b.SetBytes(int64(4 * 1000 * 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := quant.DequantizeRows(stream, dst, nil, 1000, quant.B2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLDGPartition(b *testing.B) {
	ds := synthetic.MustLoad("products-sim", 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.Partition(ds.Graph, 8, partition.LDG)
	}
}

// benchEngine builds a tiny-graph Engine through the public API; the
// deployment is cached across iterations, so the benchmarks measure the
// training loop, not partitioning.
func benchEngine(b *testing.B, epochs int, opts ...adaqp.Option) *adaqp.Engine {
	b.Helper()
	ds := adaqp.MustLoadDataset("tiny", 1)
	base := []adaqp.Option{
		adaqp.WithParts(4), adaqp.WithHidden(32),
		adaqp.WithEpochs(epochs), adaqp.WithEvalEvery(0),
	}
	eng, err := adaqp.New(ds, append(base, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	eng.Deployment() // partition outside the timed loop
	return eng
}

func BenchmarkEpochVanilla(b *testing.B) {
	eng := benchEngine(b, 1, adaqp.WithMethod(adaqp.Vanilla))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpochAdaQP(b *testing.B) {
	// Two epochs: the 8-bit bootstrap + one at the solved widths.
	eng := benchEngine(b, 2, adaqp.WithMethod(adaqp.AdaQP))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochTransports measures one training epoch per registered
// runtime backend through the Engine API — the per-backend cost of the
// transport seam itself — plus a SANCUS blocking/overlap pair
// demonstrating the split-phase schedule.
// Every sub-benchmark reports the run's simulated wall-clock as
// sim-wallclock-sec (that the overlap variant's simulated epoch is shorter
// than the blocking one's is asserted by core's TestOverlapReducesWallClock).
func BenchmarkEpochTransports(b *testing.B) {
	run := func(b *testing.B, opts ...adaqp.Option) {
		b.Helper()
		eng := benchEngine(b, 2, opts...)
		b.ResetTimer()
		var wall adaqp.Seconds
		for i := 0; i < b.N; i++ {
			res, err := eng.Run()
			if err != nil {
				b.Fatal(err)
			}
			wall = res.WallClock
		}
		b.ReportMetric(float64(wall), "sim-wallclock-sec")
	}
	for _, tr := range adaqp.Transports() {
		b.Run(tr, func(b *testing.B) { run(b, adaqp.WithTransport(adaqp.TransportSpec{Name: tr})) })
	}
	// The overlap pair: same SANCUS job, blocking vs split-phase schedule.
	// Fixed-seed losses are bit-identical; sim-wallclock-sec must drop.
	b.Run("sancus-blocking", func(b *testing.B) {
		run(b, adaqp.WithMethod(adaqp.SANCUS))
	})
	b.Run("sancus-sharded-overlap", func(b *testing.B) {
		run(b, adaqp.WithMethod(adaqp.SANCUS),
			adaqp.WithTransport(adaqp.TransportSpec{
				Name: adaqp.TransportShardedAsync, Overlap: true,
			}))
	})
}

// BenchmarkEpochChaos measures what deterministic fault injection costs a
// training run: the same 4-epoch job fault-free and under each fault
// family (straggler slowdowns, transient retries, crash + checkpoint
// recovery). Faults charge simulated time, not real time, so the gap over
// the clean sub-benchmark is the real-time price of the fault wrapper and
// the crash path's checkpoint/restore/replay — the number the chaos gate
// keeps bounded.
func BenchmarkEpochChaos(b *testing.B) {
	cases := []struct {
		name string
		spec adaqp.FaultSpec
	}{
		{"clean", adaqp.FaultSpec{}},
		{"stragglers", adaqp.FaultSpec{Seed: 3, Stragglers: 2, SlowFactor: 3, LinkFactor: 4}},
		{"transient", adaqp.FaultSpec{Seed: 9, FailRate: 0.3, MaxRetries: 2, Backoff: 0.01}},
		{"crash", adaqp.FaultSpec{Seed: 5, CrashEpoch: 2, RestartPenalty: 5}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			opts := []adaqp.Option{adaqp.WithMethod(adaqp.Vanilla)}
			if tc.spec.Enabled() {
				opts = append(opts, adaqp.WithFaultPlan(tc.spec))
			}
			eng := benchEngine(b, 4, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulerThroughput measures the serving layer: 120 small
// fixed-seed sessions submitted by 10 concurrent clients (with back-off on
// queue-full rejections) through a 4-worker Scheduler. Beyond ns/op it
// reports sessions/s and the p50/p99 completion latency — the capacity
// numbers the ROADMAP's serving direction is judged by.
func BenchmarkSchedulerThroughput(b *testing.B) {
	const (
		clients       = 10
		jobsPerClient = 12 // 120 sessions per iteration
	)
	ds := adaqp.MustLoadDataset("tiny", 0.25)
	for i := 0; i < b.N; i++ {
		sched, err := adaqp.NewScheduler(
			adaqp.WithMaxConcurrentSessions(4),
			adaqp.WithQueueDepth(16),
			adaqp.WithRetryAfter(time.Millisecond))
		if err != nil {
			b.Fatal(err)
		}
		var (
			mu        sync.Mutex
			latencies []time.Duration
		)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(client int) {
				defer wg.Done()
				for j := 0; j < jobsPerClient; j++ {
					submitted := time.Now()
					for {
						h, err := sched.Submit(ds,
							adaqp.WithParts(2), adaqp.WithMethod(adaqp.Vanilla),
							adaqp.WithEpochs(1), adaqp.WithHidden(8), adaqp.WithEvalEvery(0),
							adaqp.WithSeed(uint64(client*jobsPerClient+j+1)))
						if errors.Is(err, adaqp.ErrQueueFull) {
							time.Sleep(sched.RetryAfter())
							continue
						}
						if err != nil {
							b.Error(err)
							return
						}
						if _, err := h.Wait(context.Background()); err != nil {
							b.Error(err)
							return
						}
						break
					}
					mu.Lock()
					latencies = append(latencies, time.Since(submitted))
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if err := sched.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
		if n := int64(clients * jobsPerClient); sched.Counters().Completed != n {
			b.Fatalf("completed %d sessions, want %d", sched.Counters().Completed, n)
		}
		sort.Slice(latencies, func(x, y int) bool { return latencies[x] < latencies[y] })
		b.ReportMetric(float64(len(latencies))/elapsed.Seconds(), "sessions/s")
		b.ReportMetric(float64(latencies[len(latencies)/2].Microseconds())/1e3, "p50-ms")
		b.ReportMetric(float64(latencies[(len(latencies)-1)*99/100].Microseconds())/1e3, "p99-ms")
	}
}

// BenchmarkEpochCodecs measures one training epoch per registered codec
// through the Engine API — the per-scheme cost of the codec seam itself.
func BenchmarkEpochCodecs(b *testing.B) {
	for _, codec := range adaqp.Codecs() {
		b.Run(codec, func(b *testing.B) {
			eng := benchEngine(b, 2, adaqp.WithCodec(adaqp.CodecSpec{Name: codec}))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

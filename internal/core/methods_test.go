package core

import (
	"math"
	"testing"

	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/timing"
)

// byteBound model: negligible latency so byte volumes drive all timing
// comparisons in these tests.
func byteBound() *timing.CostModel {
	m := timing.Default()
	m.Latency = 1e-9
	return m
}

func TestSancusMovesFewerBytesThanVanilla(t *testing.T) {
	// SANCUS skips broadcasts under its staleness bound and never sends
	// backward messages, so its total traffic must be well below Vanilla's.
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 3, GCN, partition.Block)
	van, err := TrainDeployed(dep, tinyConfig(Vanilla), byteBound())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(SANCUS)
	cfg.SancusMaxStale = 6
	san, err := TrainDeployed(dep, cfg, byteBound())
	if err != nil {
		t.Fatal(err)
	}
	vb, sb := totalBytes(van.BytesMoved), totalBytes(san.BytesMoved)
	// SANCUS eliminates backward traffic and skips stale broadcasts, but
	// each broadcast redundantly ships the full boundary union to every
	// peer (all2all ships only what each peer needs), so the net saving is
	// partial — the same trade-off that makes SANCUS's *time* worse than
	// ring all2all in the paper despite being "communication-avoiding".
	if sb >= vb {
		t.Fatalf("SANCUS should move fewer bytes than Vanilla: %d vs %d", sb, vb)
	}
}

func TestSancusBroadcastsOnEveryRefreshBound(t *testing.T) {
	// With MaxStale=1 SANCUS degenerates to broadcasting every epoch; with
	// a huge drift threshold and large MaxStale it broadcasts rarely. The
	// rarely-broadcasting run must move strictly fewer bytes.
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 3, GCN, partition.Block)
	fresh := tinyConfig(SANCUS)
	fresh.SancusMaxStale = 1
	stale := tinyConfig(SANCUS)
	stale.SancusMaxStale = 100
	stale.SancusDrift = 1e9
	rf, err := TrainDeployed(dep, fresh, byteBound())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := TrainDeployed(dep, stale, byteBound())
	if err != nil {
		t.Fatal(err)
	}
	fb, sb := totalBytes(rf.BytesMoved), totalBytes(rs.BytesMoved)
	if sb >= fb {
		t.Fatalf("stale SANCUS moved %d bytes, fresh %d", sb, fb)
	}
	// The always-stale run still trains (epoch 0 broadcast seeds caches).
	last := rs.Epochs[len(rs.Epochs)-1]
	if math.IsNaN(last.Loss) || math.IsInf(last.Loss, 0) {
		t.Fatal("stale SANCUS produced non-finite loss")
	}
}

func TestPipeGCNMatchesVanillaLossAtEpochZero(t *testing.T) {
	// PipeGCN's epoch 0 is a synchronous full-precision epoch, so its
	// first loss must equal Vanilla's exactly; staleness kicks in later
	// and the trajectories may diverge.
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 3, GraphSAGE, partition.Block)
	cfgV := tinyConfig(Vanilla)
	cfgV.Model = GraphSAGE
	cfgV.Dropout = 0
	cfgP := tinyConfig(PipeGCN)
	cfgP.Model = GraphSAGE
	cfgP.Dropout = 0
	van, err := TrainDeployed(dep, cfgV, nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := TrainDeployed(dep, cfgP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(van.Epochs[0].Loss - pipe.Epochs[0].Loss); d > 1e-9 {
		t.Fatalf("epoch-0 losses differ by %v (PipeGCN must be synchronous at epoch 0)", d)
	}
}

func TestPipeGCNOverlapReducesEpochTime(t *testing.T) {
	// After the synchronous first epoch, PipeGCN overlaps communication
	// with computation, so its simulated time must undercut Vanilla's on
	// the same deployment.
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 4, GraphSAGE, partition.Block)
	cfgV := tinyConfig(Vanilla)
	cfgV.Model = GraphSAGE
	cfgP := tinyConfig(PipeGCN)
	cfgP.Model = GraphSAGE
	van, err := TrainDeployed(dep, cfgV, nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := TrainDeployed(dep, cfgP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.WallClock >= van.WallClock {
		t.Fatalf("PipeGCN wall-clock %.4fs should undercut Vanilla %.4fs", pipe.WallClock, van.WallClock)
	}
}

// TestAdaQPReportsOverlapSeconds: AdaQP's own schedule hides central-graph
// compute behind its messages, and the run must say how much — as
// bookkeeping only, so every device's wall-clock categories still add up
// to its clock.
func TestAdaQPReportsOverlapSeconds(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 3, GCN, partition.Block)
	cfg := tinyConfig(AdaQP)
	clocks := captureClocks(t, &cfg)
	res, err := TrainDeployed(dep, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverlapSeconds() <= 0 {
		t.Fatalf("adaptive run reports OverlapSeconds() = %v, want > 0", res.OverlapSeconds())
	}
	for r, c := range clocks() {
		sum, now := float64(res.PerDevice[r].Total()), float64(c.Now())
		if math.Abs(sum-now) > 1e-9*now {
			t.Fatalf("device %d: Comm+Comp+Quant+Idle+Assign = %v but Now() = %v", r, sum, now)
		}
	}
}

func TestUniformBitsOrderTraffic(t *testing.T) {
	// 2-bit < 4-bit < 8-bit < full precision in total bytes moved.
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 3, GCN, partition.Block)
	var prev int64 = -1
	for _, b := range []quant.BitWidth{quant.B2, quant.B4, quant.B8} {
		cfg := tinyConfig(AdaQPUniform)
		cfg.UniformBits = b
		res, err := TrainDeployed(dep, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		bytes := totalBytes(res.BytesMoved)
		if bytes <= prev {
			t.Fatalf("%d-bit moved %d bytes, not more than previous %d", b, bytes, prev)
		}
		prev = bytes
	}
	van, err := TrainDeployed(dep, tinyConfig(Vanilla), nil)
	if err != nil {
		t.Fatal(err)
	}
	if vb := totalBytes(van.BytesMoved); vb <= prev {
		t.Fatalf("full precision moved %d bytes, not more than 8-bit %d", vb, prev)
	}
}

func TestDeterministicRuns(t *testing.T) {
	// Same config, same deployment → bit-identical losses and accuracy,
	// regardless of goroutine scheduling.
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 3, GCN, partition.Block)
	cfg := tinyConfig(AdaQP)
	a, err := TrainDeployed(dep, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainDeployed(dep, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Epochs {
		if a.Epochs[i].Loss != b.Epochs[i].Loss {
			t.Fatalf("epoch %d: losses differ (%v vs %v) — nondeterminism", i, a.Epochs[i].Loss, b.Epochs[i].Loss)
		}
	}
	if a.FinalTest != b.FinalTest {
		t.Fatalf("test accuracies differ: %v vs %v", a.FinalTest, b.FinalTest)
	}
}

func TestSeedChangesTrajectory(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 2, GCN, partition.Block)
	cfg1 := tinyConfig(Vanilla)
	cfg2 := tinyConfig(Vanilla)
	cfg2.Seed = 999
	a, err := TrainDeployed(dep, cfg1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainDeployed(dep, cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Epochs[0].Loss == b.Epochs[0].Loss {
		t.Fatal("different seeds should give different initial weights/losses")
	}
}

func TestAnalyzeOverlapConsistency(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 4, GCN, partition.Block)
	cfg := DefaultConfig()
	cfg.Hidden = 32
	rep := AnalyzeOverlap(dep, cfg, quant.B2, nil)
	if len(rep) != 4 {
		t.Fatalf("expected 4 device reports, got %d", len(rep))
	}
	for _, d := range rep {
		if d.TotalComp != d.CentralComp+d.MarginalComp {
			t.Fatalf("device %d: total != central+marginal", d.Device)
		}
		if d.TotalComp <= 0 || d.CommSeconds <= 0 {
			t.Fatalf("device %d: non-positive costs %+v", d.Device, d)
		}
	}
	// Higher width → more comm time. The 32-bit passthrough must analyze
	// as full precision, not panic in the packing size math.
	for _, b := range []quant.BitWidth{quant.B8, quant.B32} {
		wide := AnalyzeOverlap(dep, cfg, b, nil)
		for i := range rep {
			if wide[i].CommSeconds <= rep[i].CommSeconds {
				t.Fatalf("device %d: %d-bit comm %v not above 2-bit %v", i, b, wide[i].CommSeconds, rep[i].CommSeconds)
			}
		}
	}
}

func TestPairBytesFirstLayer(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 3, GCN, partition.Block)
	pairs := PairBytesFirstLayer(dep)
	dim := ds.Features.Cols
	for src, lg := range dep.Locals {
		for dst := range pairs[src] {
			want := 0
			if dst != src {
				want = 4 * dim * len(lg.SendTo[dst])
			}
			if pairs[src][dst] != want {
				t.Fatalf("pair %d→%d bytes %d, want %d", src, dst, pairs[src][dst], want)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := Config{Lambda: 2}
	if err := cfg.validate(); err == nil {
		t.Fatal("lambda > 1 must be rejected")
	}
	cfg = Config{UniformBits: 3}
	if err := cfg.validate(); err == nil {
		t.Fatal("invalid bit-width must be rejected")
	}
	cfg = Config{}
	if err := cfg.validate(); err != nil {
		t.Fatalf("zero config should default cleanly: %v", err)
	}
	if cfg.Layers != 3 || cfg.Hidden != 256 || cfg.ReassignPeriod != 50 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestMethodAndModelStrings(t *testing.T) {
	for m, want := range map[Method]string{
		Vanilla: "Vanilla", AdaQP: "AdaQP", AdaQPUniform: "AdaQP-uniform",
		AdaQPRandom: "AdaQP-random", PipeGCN: "PipeGCN", SANCUS: "SANCUS",
	} {
		if m.String() != want {
			t.Fatalf("%d → %q", m, m.String())
		}
	}
	if GCN.String() != "GCN" || GraphSAGE.String() != "GraphSAGE" {
		t.Fatal("model strings")
	}
}

func TestEvalDoesNotChargeClock(t *testing.T) {
	// Two runs differing only in evaluation frequency must report the
	// same simulated wall-clock (metrics are out-of-band).
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 2, GCN, partition.Block)
	cfgNoEval := tinyConfig(Vanilla)
	cfgNoEval.EvalEvery = 0
	cfgEval := tinyConfig(Vanilla)
	cfgEval.EvalEvery = 1
	a, err := TrainDeployed(dep, cfgNoEval, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainDeployed(dep, cfgEval, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallClock != b.WallClock {
		t.Fatalf("evaluation leaked into simulated time: %v vs %v", a.WallClock, b.WallClock)
	}
}

package core

import (
	"math"
	"strings"
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
	van, err := TrainDeployed(dep, tinyConfig(CodecFP32), byteBound())
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(CodecSancus)
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
	fresh := tinyConfig(CodecSancus)
	fresh.SancusMaxStale = 1
	stale := tinyConfig(CodecSancus)
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
	cfgV := tinyConfig(CodecFP32)
	cfgV.Model = GraphSAGE
	cfgV.Dropout = 0
	cfgP := tinyConfig(CodecPipeGCN)
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
	cfgV := tinyConfig(CodecFP32)
	cfgV.Model = GraphSAGE
	cfgP := tinyConfig(CodecPipeGCN)
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
	cfg := tinyConfig(CodecAdaptive)
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
		cfg := tinyConfig(CodecUniform)
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
	van, err := TrainDeployed(dep, tinyConfig(CodecFP32), nil)
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
	cfg := tinyConfig(CodecAdaptive)
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
	cfg1 := tinyConfig(CodecFP32)
	cfg2 := tinyConfig(CodecFP32)
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
	cfg := DefaultConfig()
	cfg.Lambda = 2
	if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "lambda 2") {
		t.Fatalf("lambda > 1 must be rejected by name: %v", err)
	}
	cfg = DefaultConfig()
	cfg.UniformBits = 3
	if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "bits 3") {
		t.Fatalf("invalid bit-width must be rejected by name: %v", err)
	}
	// validate fills nothing: DefaultConfig is the one table of defaults.
	if err := (Config{}).validate(); err == nil {
		t.Fatal("Config{} must be refused")
	}
	if err := DefaultConfig().validate(); err != nil {
		t.Fatalf("DefaultConfig must validate: %v", err)
	}
}

func TestEvalDoesNotChargeClock(t *testing.T) {
	// Two runs differing only in evaluation frequency must report the
	// same simulated wall-clock (metrics are out-of-band).
	ds := synthetic.MustLoad("tiny", 1)
	dep := Deploy(ds, 2, GCN, partition.Block)
	cfgNoEval := tinyConfig(CodecFP32)
	cfgNoEval.EvalEvery = 0
	cfgEval := tinyConfig(CodecFP32)
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

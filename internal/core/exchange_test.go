package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// ringGraphs hand-builds a 3-device deployment: every device owns 4 rows,
// ships rows {0,1} to its successor and {1,3} to its predecessor (row 1
// goes to both, so the backward exchange must accumulate), and holds 4
// halo slots — {0,1} from its predecessor, {2,3} from its successor.
func ringGraphs() []*partition.LocalGraph {
	lgs := make([]*partition.LocalGraph, 3)
	for r := range lgs {
		next, prev := (r+1)%3, (r+2)%3
		lg := &partition.LocalGraph{Part: r, Parts: 3, NumLocal: 4, NumHalo: 4,
			SendTo: make([][]int32, 3), RecvFrom: make([][]int32, 3)}
		lg.SendTo[next], lg.SendTo[prev] = []int32{0, 1}, []int32{1, 3}
		lg.RecvFrom[prev], lg.RecvFrom[next] = []int32{0, 1}, []int32{2, 3}
		lgs[r] = lg
	}
	return lgs
}

// stageModel is dyadicModel with a dyadic kernel rate too: every charge is
// a power-of-two multiple, so the expected clock values below are exact in
// float64 whatever the summation order.
func stageModel() *timing.CostModel {
	m := dyadicModel()
	m.QuantRate = 1 << 10
	return m
}

// stubCoder is fpCoder's wire format with settable kernel passes and an
// injectable decode failure.
type stubCoder struct {
	fpCoder
	send, recv int
	fail       error
}

func (s *stubCoder) passes() (int, int) { return s.send, s.recv }

func (s *stubCoder) decode(e *ExchangeEnv, p int, buf []byte, dst *tensor.Matrix, idx []int32, add bool) error {
	if s.fail != nil {
		return s.fail
	}
	return s.fpCoder.decode(e, p, buf, dst, idx, add)
}

// runStage runs one stage on every device of the ring deployment and
// returns the per-device clocks, destination matrices and errors. Device
// r's source rows are filled with 100r + 10row + col.
func runStage(t *testing.T, c rowCoder, sched schedule, dir direction, costs [2]StageCosts) ([]*timing.Clock, []*tensor.Matrix, []error) {
	t.Helper()
	const dim = 8
	lgs := ringGraphs()
	factory, err := LookupTransport(TransportInprocess)
	if err != nil {
		t.Fatal(err)
	}
	rt := factory(TransportSpec{Parts: 3, Model: stageModel()})
	dsts, errs := make([]*tensor.Matrix, 3), make([]error, 3)
	if err := rt.Run(1, func(dev Transport) error {
		r := dev.Rank()
		lg := lgs[r]
		srcRows, dstRows := lg.NumLocal, lg.NumLocal+lg.NumHalo
		if dir == backward {
			srcRows, dstRows = dstRows, srcRows
		}
		src, dst := tensor.New(srcRows, dim), tensor.New(dstRows, dim)
		for i := 0; i < src.Rows; i++ {
			for j := range src.Row(i) {
				src.Row(i)[j] = float32(100*r + 10*i + j)
			}
		}
		env := &ExchangeEnv{Dev: dev, Graph: lg, Pool: NewArena(1), costs: [][2]StageCosts{costs}}
		dsts[r], errs[r] = dst, env.stage(c, sched, dir, 0, src, dst)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rt.Clocks(), dsts, errs
}

// TestStageSchedules pins the one charging rule per schedule and direction:
// ΔComp is Total (sequential), Marginal + max(0, Central − ΔComm)
// (overlapped) or max(0, Total − ΔComm) (pipelined); the concurrent seconds
// min(hidden, ΔComm) land in Overlap without moving the clock; ΔQuant is
// QuantTime(passes × wire elements) per side and absent at zero passes.
func TestStageSchedules(t *testing.T) {
	// "long" compute outlasts the exchange (ΔComm is a few 2^-10 s here),
	// "short" compute hides completely.
	long := [2]StageCosts{forward: {Total: 0.75, Central: 0.5, Marginal: 0.25}, backward: {Total: 1.5, Central: 1, Marginal: 0.5}}
	short := [2]StageCosts{forward: {Total: 3.0 / (1 << 13), Central: 1.0 / (1 << 12), Marginal: 1.0 / (1 << 13)},
		backward: {Total: 3.0 / (1 << 12), Central: 1.0 / (1 << 11), Marginal: 1.0 / (1 << 12)}}
	model := stageModel()
	const wireElemsPerSide = 4 * 8 // 4 rows leave and 4 arrive per device, 8 columns
	for _, sched := range []schedule{sequential, overlapped, pipelined} {
		for _, dir := range directions {
			for name, costs := range map[string][2]StageCosts{"long": long, "short": short} {
				for _, passes := range [][2]int{{0, 0}, {2, 1}} {
					label := fmt.Sprintf("sched=%d dir=%d %s passes=%v", sched, dir, name, passes)
					clocks, _, errs := runStage(t, &stubCoder{send: passes[0], recv: passes[1]}, sched, dir, costs)
					sc := costs[dir]
					for r, clock := range clocks {
						if errs[r] != nil {
							t.Fatalf("%s rank %d: %v", label, r, errs[r])
						}
						comm := clock.Spent(timing.Comm)
						if comm <= 0 {
							t.Fatalf("%s rank %d: exchange charged no Comm", label, r)
						}
						serial, hidden := sc.Total, timing.Seconds(0)
						switch sched {
						case overlapped:
							serial, hidden = sc.Marginal, sc.Central
						case pipelined:
							serial, hidden = 0, sc.Total
						}
						wantComp := serial + max(0, hidden-comm)
						if got := clock.Spent(timing.Comp); got != wantComp {
							t.Errorf("%s rank %d: Comp %v, want %v (ΔComm %v)", label, r, got, wantComp, comm)
						}
						if got, want := clock.Spent(timing.Overlap), min(hidden, comm); got != want {
							t.Errorf("%s rank %d: Overlap %v, want %v", label, r, got, want)
						}
						wantQuant := model.QuantTime(passes[0]*wireElemsPerSide) + model.QuantTime(passes[1]*wireElemsPerSide)
						if got := clock.Spent(timing.Quant); got != wantQuant {
							t.Errorf("%s rank %d: Quant %v, want %v", label, r, got, wantQuant)
						}
						if _, charged := clock.Breakdown()[timing.Quant]; charged && passes == [2]int{} {
							t.Errorf("%s rank %d: a zero-pass coder touched the Quant category", label, r)
						}
						total := comm + clock.Spent(timing.Comp) + clock.Spent(timing.Quant) + clock.Spent(timing.Idle)
						if clock.Now() != total {
							t.Errorf("%s rank %d: Now %v but categories sum to %v (Overlap must not move the clock)", label, r, clock.Now(), total)
						}
					}
				}
			}
		}
	}
}

// TestExchangeRoutesRows checks the one payload loop against the hand-built
// wire lists: forward fills each halo slot with the owner's row, backward
// accumulates every peer's halo-gradient row into the owner's local row.
func TestExchangeRoutesRows(t *testing.T) {
	val := func(r, row, col int) float32 { return float32(100*r + 10*row + col) }
	_, dsts, errs := runStage(t, fpCoder{}, sequential, forward, [2]StageCosts{})
	for r, dst := range dsts {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		next, prev := (r+1)%3, (r+2)%3
		// Halo slots {0,1} hold prev's rows {0,1}; {2,3} hold next's {1,3}.
		for slot, from := range [][2]int{{prev, 0}, {prev, 1}, {next, 1}, {next, 3}} {
			for j, got := range dst.Row(4 + slot) {
				if want := val(from[0], from[1], j); got != want {
					t.Fatalf("rank %d halo slot %d col %d = %v, want %v", r, slot, j, got, want)
				}
			}
		}
	}
	_, dsts, errs = runStage(t, fpCoder{}, sequential, backward, [2]StageCosts{})
	for r, dst := range dsts {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		next, prev := (r+1)%3, (r+2)%3
		// next holds my rows {0,1} in its halo slots {0,1} (matrix rows 4,5);
		// prev holds my rows {1,3} in its slots {2,3} (matrix rows 6,7).
		for j := 0; j < dst.Cols; j++ {
			want := [4]float32{val(next, 4, j), val(next, 5, j) + val(prev, 6, j), 0, val(prev, 7, j)}
			for row, w := range want {
				if got := dst.Row(row)[j]; got != w {
					t.Fatalf("rank %d grad row %d col %d = %v, want %v", r, row, j, got, w)
				}
			}
		}
	}
}

// TestExchangeDecodeErrorNamesPeer: a coder's decode failure surfaces as
// "rank r from p: ..." with the coder's own error still matchable.
func TestExchangeDecodeErrorNamesPeer(t *testing.T) {
	boom := errors.New("stub: corrupt stream")
	for _, dir := range directions {
		_, _, errs := runStage(t, &stubCoder{fail: boom}, sequential, dir, [2]StageCosts{})
		for r, err := range errs {
			if !errors.Is(err, boom) {
				t.Fatalf("dir=%d rank %d: error %v does not wrap the coder's", dir, r, err)
			}
			// Peers decode in rank order, so the first failing peer is the
			// lowest rank other than r.
			first := 0
			if r == 0 {
				first = 1
			}
			if want := fmt.Sprintf("rank %d from %d: %v", r, first, boom); err.Error() != want {
				t.Fatalf("dir=%d rank %d: error %q, want %q", dir, r, err, want)
			}
		}
	}
}

// TestRangeScanCensus counts every row-range scan (tensor.MinMax, through
// tensor.KernelHook) of an AdaQP run on tiny and wants the encoder to scan
// nothing itself: each exchange at layers ≥ 1 scans each distinct row it
// sends exactly once, however many peers receive it, and layer 0's forward
// rows — the input features — are scanned once per device when the
// Deployment's static data is built, never during training. Hidden differs
// from tiny's 32 features, so a scan's length tells layer 0 from the rest.
func TestRangeScanCensus(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	for _, layers := range []int{2, 3} {
		cfg := tinyConfig(CodecAdaptive)
		cfg.Layers, cfg.Epochs, cfg.EvalEvery, cfg.Hidden = layers, 6, 0, 24
		dep := Deploy(ds, 3, GCN, partition.LDG)

		want := map[int]int{}
		for rank, lg := range dep.Locals {
			fwd := len(unionRows(lg.NumLocal, lg.SendTo))
			bwd := len(unionRows(lg.NumHalo, lg.RecvFrom))
			if fwd == 0 || bwd == 0 {
				t.Fatalf("rank %d sends nothing: the census would prove nothing", rank)
			}
			want[ds.Features.Cols] += fwd
			want[cfg.Hidden] += cfg.Epochs * (layers - 1) * (fwd + bwd)
		}

		var mu sync.Mutex
		got := map[int]int{}
		tensor.KernelHook = func(k string, shape [3]int) {
			if k != "MinMax" {
				return
			}
			mu.Lock()
			got[shape[0]]++
			mu.Unlock()
		}
		_, err := TrainDeployed(dep, cfg, nil)
		tensor.KernelHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if got[ds.Features.Cols] != want[ds.Features.Cols] {
			t.Errorf("layers %d: %d scans of layer 0's forward rows, want %d: one per sent row, at deployment", layers, got[ds.Features.Cols], want[ds.Features.Cols])
		}
		if got[cfg.Hidden] != want[cfg.Hidden] {
			t.Errorf("layers %d: %d scans at layers ≥ 1, want %d: one per distinct sent row per exchange", layers, got[cfg.Hidden], want[cfg.Hidden])
		}
		for n, c := range got {
			if n != ds.Features.Cols && n != cfg.Hidden {
				t.Errorf("layers %d: %d scans of length %d, none expected", layers, c, n)
			}
		}
	}
}

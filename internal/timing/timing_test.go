package timing

import (
	"math"
	"testing"
)

func TestDefaultCalibration(t *testing.T) {
	m := Default()
	if m.Bandwidth != 100e9/8 {
		t.Fatalf("bandwidth %v", m.Bandwidth)
	}
	// 1 GB at 12.5 GB/s = 80 ms + latency.
	got := float64(m.TransferTime(0, 1, 1_000_000_000))
	want := 0.08 + m.Latency
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("transfer time %v want %v", got, want)
	}
}

func TestTransferZeroBytesFree(t *testing.T) {
	m := Default()
	if m.TransferTime(0, 1, 0) != 0 {
		t.Fatal("zero bytes should cost zero (skipped message)")
	}
}

func TestPairThetaOverride(t *testing.T) {
	m := Default()
	m.PairTheta = [][]float64{{0, 1e-6}, {1e-9, 0}}
	if m.Theta(0, 1) != 1e-6 || m.Theta(1, 0) != 1e-9 {
		t.Fatal("pair theta override ignored")
	}
}

func TestComputeCosts(t *testing.T) {
	m := Default()
	// 1000×256×256 GEMM = 131M FLOP at 8 TFLOPS ≈ 16.4 µs.
	got := float64(m.DenseTime(1000, 256, 256))
	want := 2.0 * 1000 * 256 * 256 / 8e12
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("dense %v want %v", got, want)
	}
	if m.SpMMTime(0, 100) != 0 {
		t.Fatal("empty SpMM should be free")
	}
	if m.SpMMTime(1000, 64) <= 0 || m.QuantTime(1000) <= 0 || m.ElementwiseTime(1000) <= 0 {
		t.Fatal("cost kernels must be positive")
	}
}

func TestClockBreakdown(t *testing.T) {
	c := NewClock()
	c.Advance(Comm, 1)
	c.Advance(Comp, 2)
	c.Advance(Comm, 3)
	if c.Now() != 6 {
		t.Fatalf("now %v", c.Now())
	}
	if c.Spent(Comm) != 4 || c.Spent(Comp) != 2 || c.Spent(Quant) != 0 {
		t.Fatalf("breakdown wrong: %v", c.Breakdown())
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.Advance(Comp, 5)
	c.AdvanceTo(Idle, 3) // in the past: no-op
	if c.Now() != 5 || c.Spent(Idle) != 0 {
		t.Fatal("AdvanceTo must not rewind")
	}
	c.AdvanceTo(Idle, 8)
	if c.Now() != 8 || c.Spent(Idle) != 3 {
		t.Fatalf("AdvanceTo forward failed: now=%v idle=%v", c.Now(), c.Spent(Idle))
	}
}

func TestClockNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClock().Advance(Comm, -1)
}

func TestMaxSeconds(t *testing.T) {
	a, b := NewClock(), NewClock()
	a.Advance(Comp, 1)
	b.Advance(Comp, 4)
	if MaxSeconds([]*Clock{a, b}) != 4 {
		t.Fatal("MaxSeconds wrong")
	}
	if MaxSeconds(nil) != 0 {
		t.Fatal("empty MaxSeconds should be 0")
	}
}

func TestCategoryStrings(t *testing.T) {
	for cat, want := range map[Category]string{
		Comm: "comm", Comp: "comp", Quant: "quant", Idle: "idle", Assign: "assign",
	} {
		if cat.String() != want {
			t.Fatalf("%d → %q", cat, cat.String())
		}
	}
}

func TestBreakdownIsCopy(t *testing.T) {
	c := NewClock()
	c.Advance(Comm, 1)
	b := c.Breakdown()
	b[Comm] = 99
	if c.Spent(Comm) != 1 {
		t.Fatal("Breakdown must return a copy")
	}
}

// TestClosedFormOverlapVersusFinishDeferred pins how the closed-form overlap
// rule (blocking collective, then only the central compute that outlasts
// ΔComm — what core's stage charges for AdaQP) relates to running the same
// central compute between a split-phase Start and FinishDeferred. They end
// at the same instant unless a peer arrives late AND central compute
// outlasts the wire: FinishDeferred also hides the Idle wait, the closed
// form hides only behind Comm. Moving AdaQP onto a split-phase ring is
// therefore a fidelity change that lowers simulated wall-clock, not a
// bit-identical refactor.
func TestClosedFormOverlapVersusFinishDeferred(t *testing.T) {
	type split struct{ comm, comp, idle Seconds }
	for _, tc := range []struct {
		name                           string
		align, wire, central, marginal Seconds
		closedEnd, deferredEnd         Seconds
		closed, deferred               split
	}{
		{"nobody late, central > wire", 0, 1, 1.5, 0.25, 1.75, 1.75,
			split{1, 0.75, 0}, split{0, 1.75, 0}},
		{"nobody late, central <= wire", 0, 1, 0.5, 0.25, 1.25, 1.25,
			split{1, 0.25, 0}, split{0.5, 0.75, 0}},
		{"late peer, central <= wire", 1, 1, 0.5, 0.25, 2.25, 2.25,
			split{1, 0.25, 1}, split{1, 0.75, 0.5}},
		{"late peer, central > wire", 1, 1, 1.5, 0.25, 2.75, 2.25,
			split{1, 0.75, 1}, split{0.5, 1.75, 0}},
	} {
		closed := NewClock()
		closed.AdvanceTo(Idle, tc.align)
		closed.Advance(Comm, tc.wire)
		if tc.central > tc.wire {
			closed.Advance(Comp, tc.central-tc.wire)
		}
		closed.Advance(Comp, tc.marginal)

		deferred := NewClock()
		start := deferred.Now()
		deferred.Advance(Comp, tc.central)
		FinishDeferred(deferred, start, tc.align, tc.wire)
		deferred.Advance(Comp, tc.marginal)

		for _, side := range []struct {
			rule  string
			clock *Clock
			end   Seconds
			want  split
		}{{"closed form", closed, tc.closedEnd, tc.closed}, {"FinishDeferred", deferred, tc.deferredEnd, tc.deferred}} {
			if side.clock.Now() != side.end {
				t.Errorf("%s: %s ends at %v, want %v", tc.name, side.rule, side.clock.Now(), side.end)
			}
			got := split{side.clock.Spent(Comm), side.clock.Spent(Comp), side.clock.Spent(Idle)}
			if got != side.want {
				t.Errorf("%s: %s charges comm/comp/idle %+v, want %+v", tc.name, side.rule, got, side.want)
			}
		}
	}
}

package metrics

import (
	"math"
	"testing"

	"repro/internal/timing"
)

func TestBreakdownFromClock(t *testing.T) {
	c := timing.NewClock()
	c.Advance(timing.Comm, 2)
	c.Advance(timing.Comp, 3)
	c.Advance(timing.Quant, 0.5)
	b := FromClock(c)
	if b.Comm != 2 || b.Comp != 3 || b.Quant != 0.5 || b.Idle != 0 {
		t.Fatalf("breakdown %+v", b)
	}
	if b.Total() != 5.5 {
		t.Fatalf("total %v", b.Total())
	}
}

func TestBreakdownAddScale(t *testing.T) {
	a := Breakdown{Comm: 1, Comp: 2}
	b := Breakdown{Comm: 3, Quant: 4}
	s := a.Add(b)
	if s.Comm != 4 || s.Comp != 2 || s.Quant != 4 {
		t.Fatalf("add %+v", s)
	}
	h := s.Scale(0.5)
	if h.Comm != 2 || h.Comp != 1 || h.Quant != 2 {
		t.Fatalf("scale %+v", h)
	}
}

func result() *RunResult {
	return &RunResult{
		Epochs: []EpochStat{
			{Epoch: 0, Loss: 2, ValAcc: 0.5, SimTime: 1},
			{Epoch: 1, Loss: 1, ValAcc: math.NaN(), SimTime: 2},
			{Epoch: 2, Loss: 0.5, ValAcc: 0.8, SimTime: 3},
		},
		FinalTest:  0.75,
		WallClock:  10,
		AssignTime: 2,
		PerDevice: []Breakdown{
			{Comm: 4, Comp: 2, Idle: 1},
			{Comm: 6, Comp: 2, Idle: 3},
		},
	}
}

func TestThroughputExcludesAssign(t *testing.T) {
	r := result()
	if got := r.Throughput(); math.Abs(got-3.0/8.0) > 1e-12 {
		t.Fatalf("throughput %v", got)
	}
}

func TestAvgBreakdownAndCommCost(t *testing.T) {
	r := result()
	avg := r.AvgBreakdown()
	if avg.Comm != 5 || avg.Comp != 2 || avg.Idle != 2 {
		t.Fatalf("avg %+v", avg)
	}
	// comm+idle / total = 7/9
	if got := r.CommCost(); math.Abs(got-7.0/9.0) > 1e-12 {
		t.Fatalf("comm cost %v", got)
	}
}

func TestCurveSkipsNaN(t *testing.T) {
	xs, ys := result().Curve()
	if len(xs) != 2 || xs[1] != 2 || ys[1] != 0.8 {
		t.Fatalf("curve %v %v", xs, ys)
	}
}

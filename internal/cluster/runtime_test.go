package cluster_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// These tests hold the default runtime — the collective engine every
// built-in backend runs, here with one goroutine per device — to this
// package's cost functions: what a collective charges a device's clock is
// what the functions say, the straggler effect included, and the data it
// moves is exactly what was sent.

// inprocess builds the default runtime for n devices under model (nil =
// timing.Default()).
func inprocess(t *testing.T, n int, model *timing.CostModel) core.Runtime {
	t.Helper()
	f, err := core.LookupTransport(core.TransportInprocess)
	if err != nil {
		t.Fatal(err)
	}
	return f(core.TransportSpec{Parts: n, Model: model})
}

// run executes body on every device of a fresh n-device runtime and
// returns the runtime for its clocks and ledger.
func run(t *testing.T, n int, model *timing.CostModel, body func(core.Transport) error) core.Runtime {
	t.Helper()
	rt := inprocess(t, n, model)
	if err := rt.Run(1, body); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRunAllRanks(t *testing.T) {
	var mask atomic.Int64
	run(t, 5, nil, func(d core.Transport) error {
		mask.Add(1 << d.Rank())
		if d.Size() != 5 {
			return fmt.Errorf("size %d", d.Size())
		}
		return nil
	})
	if mask.Load() != 31 {
		t.Fatalf("ranks mask %b", mask.Load())
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := inprocess(t, 3, nil).Run(1, func(d core.Transport) error {
		if d.Rank() == 1 {
			return boom
		}
		d.Barrier() // unwound when rank 1 fails, never completed
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestRingAll2AllDelivery(t *testing.T) {
	const n = 4
	run(t, n, nil, func(d core.Transport) error {
		payloads := make([][]byte, n)
		for q := 0; q < n; q++ {
			if q != d.Rank() {
				payloads[q] = []byte{byte(d.Rank()), byte(q)}
			}
		}
		got := d.RingAll2All(payloads)
		for p := 0; p < n; p++ {
			if p == d.Rank() {
				if got[p] != nil {
					return fmt.Errorf("self slot must be nil")
				}
				continue
			}
			if len(got[p]) != 2 || got[p][0] != byte(p) || got[p][1] != byte(d.Rank()) {
				return fmt.Errorf("rank %d from %d got %v", d.Rank(), p, got[p])
			}
		}
		return nil
	})
}

func TestRingAll2AllChargesStragglerTime(t *testing.T) {
	// Device 0 sends a huge buffer to 1; every device must be charged the
	// same per-round max (synchronized rounds).
	const n = 3
	rt := run(t, n, nil, func(d core.Transport) error {
		payloads := make([][]byte, n)
		for q := 0; q < n; q++ {
			if q == d.Rank() {
				continue
			}
			size := 10
			if d.Rank() == 0 && q == 1 {
				size = 10_000_000
			}
			payloads[q] = make([]byte, size)
		}
		d.RingAll2All(payloads)
		return nil
	})
	clocks := rt.Clocks()
	want := clocks[0].Spent(timing.Comm)
	for r, cl := range clocks {
		if cl.Spent(timing.Comm) != want {
			t.Fatalf("rank %d comm %v != rank0 %v", r, cl.Spent(timing.Comm), want)
		}
	}
	// The big transfer dominates: 10MB at 12.5GB/s = 0.8ms.
	if want < timing.Seconds(0.0007) {
		t.Fatalf("straggler not charged: %v", want)
	}
}

func TestAll2AllTimeMatchesCharges(t *testing.T) {
	const n = 4
	model := timing.Default()
	sizes := make([][]int, n)
	for s := range sizes {
		sizes[s] = make([]int, n)
		for q := 0; q < n; q++ {
			if q != s {
				sizes[s][q] = 1000 * (s + 1) * (q + 1)
			}
		}
	}
	rt := run(t, n, model, func(d core.Transport) error {
		payloads := make([][]byte, n)
		for q := 0; q < n; q++ {
			if q != d.Rank() {
				payloads[q] = make([]byte, sizes[d.Rank()][q])
			}
		}
		d.RingAll2All(payloads)
		return nil
	})
	want := cluster.All2AllTime(model, sizes)
	got := rt.Clocks()[0].Spent(timing.Comm)
	if diff := float64(want - got); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("All2AllTime %v != charged %v", want, got)
	}
}

func TestAllReduceSum(t *testing.T) {
	const n = 4
	results := make([]float32, n)
	run(t, n, nil, func(d core.Transport) error {
		m := tensor.New(2, 2)
		m.Fill(float32(d.Rank() + 1))
		d.AllReduceSum([]*tensor.Matrix{m})
		results[d.Rank()] = m.At(0, 0)
		return nil
	})
	for r, v := range results {
		if v != 10 { // 1+2+3+4
			t.Fatalf("rank %d sum %v", r, v)
		}
	}
}

// TestAllReduceChargeUnderSkewedLinks: under a non-uniform PairTheta every
// rank still charges AllReduceTime's one schedule value, the slowest pair
// of each step.
func TestAllReduceChargeUnderSkewedLinks(t *testing.T) {
	const n, rows = 6, 64
	model := timing.Default()
	model.Bandwidth = 1 << 20
	model.Latency = 1.0 / (1 << 10)
	skewed := *model
	skewed.PairTheta = make([][]float64, n)
	for s := range skewed.PairTheta {
		skewed.PairTheta[s] = make([]float64, n)
		for d := range skewed.PairTheta[s] {
			skewed.PairTheta[s][d] = float64(1+(3*s+d)%5) / model.Bandwidth
		}
	}
	rt := run(t, n, &skewed, func(d core.Transport) error {
		d.AllReduceSum([]*tensor.Matrix{tensor.New(rows, rows)})
		return nil
	})
	want := cluster.AllReduceTime(&skewed, n, 4*rows*rows)
	if uniform := cluster.AllReduceTime(model, n, 4*rows*rows); want <= uniform {
		t.Errorf("slower links charged %v, not above the uniform model's %v", want, uniform)
	}
	for r, cl := range rt.Clocks() {
		if got := cl.Spent(timing.Comm); got != want {
			t.Errorf("rank %d charged %v under a skewed PairTheta, want %v on every rank", r, got, want)
		}
	}
}

func TestBroadcastSequentialTiming(t *testing.T) {
	// Broadcast charges the SUM over destinations (sequential sends),
	// unlike ring all2all's per-round max.
	const n = 4
	model := timing.Default()
	payload := make([]byte, 1_000_000)
	rt := run(t, n, model, func(d core.Transport) error {
		var p []byte
		if d.Rank() == 2 {
			p = payload
		}
		got := d.BroadcastBytes(2, p)
		if len(got) != len(payload) {
			return fmt.Errorf("rank %d got %d bytes", d.Rank(), len(got))
		}
		return nil
	})
	perMsg := float64(model.TransferTime(2, 0, len(payload)))
	want := 3 * perMsg
	for r, cl := range rt.Clocks() {
		got := float64(cl.Spent(timing.Comm))
		if diff := want - got; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("rank %d broadcast time %v, want %v", r, got, want)
		}
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	const n = 3
	rt := run(t, n, nil, func(d core.Transport) error {
		d.Clock().Advance(timing.Comp, timing.Seconds(float64(d.Rank())*0.5))
		d.Barrier()
		if d.Clock().Now() != timing.Seconds(1.0) {
			return fmt.Errorf("rank %d clock %v after barrier", d.Rank(), d.Clock().Now())
		}
		return nil
	})
	// Rank 0 waited 1.0s, rank 2 waited 0.
	if idle := rt.Clocks()[0].Spent(timing.Idle); idle != 1.0 {
		t.Fatalf("rank0 idle %v", idle)
	}
	if idle := rt.Clocks()[2].Spent(timing.Idle); idle != 0 {
		t.Fatalf("rank2 idle %v", idle)
	}
}

func TestDeterministicTraining(t *testing.T) {
	// Two identical runs must produce bit-identical allreduce results even
	// though goroutine scheduling differs.
	result := func() float32 {
		var out float32
		run(t, 4, nil, func(d core.Transport) error {
			m := tensor.New(8, 8)
			m.FillNormal(d.Rand(), 0, 1)
			for i := 0; i < 5; i++ {
				d.AllReduceSum([]*tensor.Matrix{m})
				m.Scale(0.25)
			}
			if d.Rank() == 0 {
				out = m.At(3, 3)
			}
			return nil
		})
		return out
	}
	a, b := result(), result()
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestNewPanicsOnZeroDevices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	inprocess(t, 0, nil)
}

package cluster

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
	"repro/internal/timing"
)

func TestRunAllRanks(t *testing.T) {
	c := New(5, nil)
	var mask int64
	err := c.Run(1, func(d *Device) error {
		atomic.AddInt64(&mask, 1<<d.Rank())
		if d.Size() != 5 {
			return fmt.Errorf("size %d", d.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mask != 31 {
		t.Fatalf("ranks mask %b", mask)
	}
}

func TestRunPropagatesError(t *testing.T) {
	c := New(3, nil)
	err := c.Run(1, func(d *Device) error {
		if d.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestRingAll2AllDelivery(t *testing.T) {
	const n = 4
	c := New(n, nil)
	err := c.Run(1, func(d *Device) error {
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
	if err != nil {
		t.Fatal(err)
	}
}

func TestRingAll2AllChargesStragglerTime(t *testing.T) {
	// Device 0 sends a huge buffer to 1; every device must be charged the
	// same per-round max (synchronized rounds).
	const n = 3
	c := New(n, nil)
	err := c.Run(1, func(d *Device) error {
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
	if err != nil {
		t.Fatal(err)
	}
	clocks := c.Clocks()
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
	c := New(n, model)
	sizes := make([][]int, n)
	for s := range sizes {
		sizes[s] = make([]int, n)
		for q := 0; q < n; q++ {
			if q != s {
				sizes[s][q] = 1000 * (s + 1) * (q + 1)
			}
		}
	}
	err := c.Run(1, func(d *Device) error {
		payloads := make([][]byte, n)
		for q := 0; q < n; q++ {
			if q != d.Rank() {
				payloads[q] = make([]byte, sizes[d.Rank()][q])
			}
		}
		d.RingAll2All(payloads)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := All2AllTime(model, sizes)
	got := c.Clocks()[0].Spent(timing.Comm)
	if diff := float64(want - got); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("All2AllTime %v != charged %v", want, got)
	}
}

func TestAllReduceSum(t *testing.T) {
	const n = 4
	c := New(n, nil)
	results := make([]float32, n)
	err := c.Run(1, func(d *Device) error {
		m := tensor.New(2, 2)
		m.Fill(float32(d.Rank() + 1))
		d.AllReduceSum([]*tensor.Matrix{m})
		results[d.Rank()] = m.At(0, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range results {
		if v != 10 { // 1+2+3+4
			t.Fatalf("rank %d sum %v", r, v)
		}
	}
}

// TestAllReduceTimeSchedules pins which textbook schedule AllReduceTime
// charges and its value, latency-bound (θ·B = γ/16) and bandwidth-bound
// (θ·B = 16384·γ), on powers of two and on sizes that fold.
func TestAllReduceTimeSchedules(t *testing.T) {
	model := timing.Default()
	model.Bandwidth = 1 << 20
	model.Latency = 1.0 / (1 << 10)
	const small, large = 64, 1 << 24
	a := model.Latency
	w := func(bytes int) float64 { return float64(bytes) / model.Bandwidth }
	ws, wl := w(small), w(large)
	cases := []struct {
		n, bytes int
		winner   int // -1: every schedule is free
		want     float64
	}{
		{1, small, -1, 0},
		{2, small, doublingSchedule, a + ws},
		{3, small, doublingSchedule, 2*(a+ws) + (a + ws)},
		{4, small, doublingSchedule, 2 * (a + ws)},
		{5, small, doublingSchedule, 2*(a+ws) + 2*(a+ws)},
		{6, small, doublingSchedule, 2*(a+ws) + 2*(a+ws)},
		{8, small, doublingSchedule, 3 * (a + ws)},
		{16, small, doublingSchedule, 4 * (a + ws)},
		{1, large, -1, 0},
		{2, large, doublingSchedule, a + wl},
		{3, large, ringSchedule, 4 * (a + wl/3)},
		{4, large, rabenseifnerSchedule, 4*a + 2*wl*(1-1.0/4)},
		{5, large, ringSchedule, 8 * (a + wl/5)},
		{6, large, ringSchedule, 10 * (a + wl/6)},
		{8, large, rabenseifnerSchedule, 6*a + 2*wl*(1-1.0/8)},
		{16, large, rabenseifnerSchedule, 8*a + 2*wl*(1-1.0/16)},
	}
	for _, tc := range cases {
		costs := allReduceCosts(model, tc.n, tc.bytes)
		got := AllReduceTime(model, tc.n, tc.bytes)
		if diff := float64(got) - tc.want; diff > 1e-12*tc.want || diff < -1e-12*tc.want {
			t.Errorf("N=%d B=%d: charged %v, want %v", tc.n, tc.bytes, got, tc.want)
		}
		if tc.winner >= 0 && got != costs[tc.winner] {
			t.Errorf("N=%d B=%d: charged %v, want schedule %d's %v (all: %v)", tc.n, tc.bytes, got, tc.winner, costs[tc.winner], costs)
		}
		if got > costs[ringSchedule] {
			t.Errorf("N=%d B=%d: charged %v, above the ring's %v", tc.n, tc.bytes, got, costs[ringSchedule])
		}
	}

	// Under a non-uniform PairTheta every rank still charges the one
	// schedule's value, the slowest pair of each step.
	const n, rows = 6, 64
	skewed := *model
	skewed.PairTheta = make([][]float64, n)
	for s := range skewed.PairTheta {
		skewed.PairTheta[s] = make([]float64, n)
		for d := range skewed.PairTheta[s] {
			skewed.PairTheta[s][d] = float64(1+(3*s+d)%5) / model.Bandwidth
		}
	}
	c := New(n, &skewed)
	if err := c.Run(1, func(d *Device) error {
		d.AllReduceSum([]*tensor.Matrix{tensor.New(rows, rows)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := AllReduceTime(&skewed, n, 4*rows*rows)
	if uniform := AllReduceTime(model, n, 4*rows*rows); want <= uniform {
		t.Errorf("slower links charged %v, not above the uniform model's %v", want, uniform)
	}
	for r, cl := range c.Clocks() {
		if got := cl.Spent(timing.Comm); got != want {
			t.Errorf("rank %d charged %v under a skewed PairTheta, want %v on every rank", r, got, want)
		}
	}
}

func TestGatherScatter(t *testing.T) {
	const n = 3
	c := New(n, nil)
	err := c.Run(1, func(d *Device) error {
		gathered := d.GatherBytes(0, []byte{byte(d.Rank() + 100)})
		if d.Rank() == 0 {
			for r := 0; r < n; r++ {
				if gathered[r][0] != byte(r+100) {
					return fmt.Errorf("gather slot %d = %v", r, gathered[r])
				}
			}
		} else if gathered != nil {
			return fmt.Errorf("non-root got gather results")
		}
		var out [][]byte
		if d.Rank() == 0 {
			out = [][]byte{{0}, {11}, {22}}
		}
		mine := d.ScatterBytes(0, out)
		if mine[0] != byte(11*d.Rank()) {
			return fmt.Errorf("rank %d scatter got %v", d.Rank(), mine)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastSequentialTiming(t *testing.T) {
	// Broadcast charges the SUM over destinations (sequential sends),
	// unlike ring all2all's per-round max.
	const n = 4
	model := timing.Default()
	c := New(n, model)
	payload := make([]byte, 1_000_000)
	err := c.Run(1, func(d *Device) error {
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
	if err != nil {
		t.Fatal(err)
	}
	perMsg := float64(model.TransferTime(2, 0, len(payload)))
	want := 3 * perMsg
	got := float64(c.Clocks()[0].Spent(timing.Comm))
	if diff := want - got; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("broadcast time %v, want %v", got, want)
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	const n = 3
	c := New(n, nil)
	err := c.Run(1, func(d *Device) error {
		d.Clock().Advance(timing.Comp, timing.Seconds(float64(d.Rank())*0.5))
		d.Barrier()
		if d.Clock().Now() != timing.Seconds(1.0) {
			return fmt.Errorf("rank %d clock %v after barrier", d.Rank(), d.Clock().Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 waited 1.0s, rank 2 waited 0.
	if idle := c.Clocks()[0].Spent(timing.Idle); idle != 1.0 {
		t.Fatalf("rank0 idle %v", idle)
	}
	if idle := c.Clocks()[2].Spent(timing.Idle); idle != 0 {
		t.Fatalf("rank2 idle %v", idle)
	}
}

func TestRawAll2AllUncharged(t *testing.T) {
	const n = 3
	c := New(n, nil)
	err := c.Run(1, func(d *Device) error {
		payloads := make([][]byte, n)
		for q := 0; q < n; q++ {
			if q != d.Rank() {
				payloads[q] = make([]byte, 1_000_000)
			}
		}
		got := d.RawAll2All(payloads)
		for p := 0; p < n; p++ {
			if p != d.Rank() && len(got[p]) != 1_000_000 {
				return fmt.Errorf("raw delivery broken")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, cl := range c.Clocks() {
		if cl.Now() != 0 {
			t.Fatalf("rank %d charged %v by raw exchange", r, cl.Now())
		}
	}
}

func TestRawAllGather(t *testing.T) {
	const n = 4
	c := New(n, nil)
	err := c.Run(1, func(d *Device) error {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(d.Rank()*7))
		all := d.RawAllGather(buf)
		for p := 0; p < n; p++ {
			if binary.LittleEndian.Uint64(all[p]) != uint64(p*7) {
				return fmt.Errorf("allgather slot %d wrong", p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBytesMovedAccounting(t *testing.T) {
	const n = 2
	c := New(n, nil)
	err := c.Run(1, func(d *Device) error {
		payloads := make([][]byte, n)
		payloads[1-d.Rank()] = make([]byte, 100*(d.Rank()+1))
		d.RingAll2All(payloads)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bm := c.BytesMoved()
	if bm[0][1] != 100 || bm[1][0] != 200 {
		t.Fatalf("bytes moved %v", bm)
	}
}

func TestDeterministicTraining(t *testing.T) {
	// Two identical runs must produce bit-identical allreduce results even
	// though goroutine scheduling differs.
	run := func() float32 {
		c := New(4, nil)
		var out float32
		_ = c.Run(7, func(d *Device) error {
			m := tensor.New(8, 8)
			m.FillNormal(d.RNG, 0, 1)
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
	a, b := run(), run()
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
	New(0, nil)
}

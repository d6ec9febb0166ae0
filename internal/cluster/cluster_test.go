package cluster

import (
	"testing"

	"repro/internal/timing"
)

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
}

// Package metrics collects the measurements the paper reports: convergence
// curves (epoch → validation accuracy), per-epoch time breakdowns
// (communication / computation / quantization, Fig. 10a), wall-clock
// decomposition (training vs bit-width assignment, Fig. 10b) and
// throughput.
package metrics

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/timing"
)

// EpochStat is one epoch's record.
type EpochStat struct {
	Epoch   int
	Loss    float64
	ValAcc  float64 // NaN when evaluation was skipped this epoch
	SimTime timing.Seconds
}

// Breakdown aggregates simulated time by category across one run.
// Overlap is bookkeeping-only — seconds compute and a collective ran
// concurrently (see timing.Overlap) — and is excluded from Total: those
// seconds already elapsed under Comp or Comm.
type Breakdown struct {
	Comm, Comp, Quant, Idle, Assign, Overlap timing.Seconds
}

// Total returns the sum of all wall-clock categories (Overlap excluded:
// it annotates hidden time, it is not additional time).
func (b Breakdown) Total() timing.Seconds {
	return b.Comm + b.Comp + b.Quant + b.Idle + b.Assign
}

// FromClock extracts a Breakdown from a device clock.
func FromClock(c *timing.Clock) Breakdown {
	return Breakdown{
		Comm:    c.Spent(timing.Comm),
		Comp:    c.Spent(timing.Comp),
		Quant:   c.Spent(timing.Quant),
		Idle:    c.Spent(timing.Idle),
		Assign:  c.Spent(timing.Assign),
		Overlap: c.Spent(timing.Overlap),
	}
}

// Add returns b + o.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Comm: b.Comm + o.Comm, Comp: b.Comp + o.Comp,
		Quant: b.Quant + o.Quant, Idle: b.Idle + o.Idle,
		Assign: b.Assign + o.Assign, Overlap: b.Overlap + o.Overlap,
	}
}

// Scale returns b × f.
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{
		Comm: b.Comm * timing.Seconds(f), Comp: b.Comp * timing.Seconds(f),
		Quant: b.Quant * timing.Seconds(f), Idle: b.Idle * timing.Seconds(f),
		Assign: b.Assign * timing.Seconds(f), Overlap: b.Overlap * timing.Seconds(f),
	}
}

func (b Breakdown) String() string {
	return fmt.Sprintf("comm=%.4fs comp=%.4fs quant=%.4fs idle=%.4fs assign=%.4fs overlap=%.4fs",
		b.Comm, b.Comp, b.Quant, b.Idle, b.Assign, b.Overlap)
}

// RunResult is everything one training run produced.
type RunResult struct {
	Dataset string
	Model   string
	// Codec names the message codec the run used (registry name).
	Codec string
	Parts int

	Epochs []EpochStat

	FinalVal  float64
	FinalTest float64

	// WallClock is the simulated end-to-end training time (slowest
	// device), including assignment overhead, excluding evaluation.
	WallClock timing.Seconds
	// AssignTime is the portion of WallClock spent in bit-width
	// assignment (Fig. 10b's "Assign").
	AssignTime timing.Seconds
	// PerDevice holds each device's breakdown.
	PerDevice []Breakdown
	// BytesMoved[src][dst] counts payload bytes over the run.
	BytesMoved [][]int64
	// Faults summarizes the run's injected faults and recovery work
	// (zero value when the run had no fault plan).
	Faults FaultStats
}

// FaultStats counts injected faults and what recovering from them cost.
// Faults charge simulated time only, so a faulted run's loss curve stays
// bit-identical to the fault-free run — these counters plus the inflated
// clocks are the whole observable difference.
type FaultStats struct {
	// Stragglers is how many devices the fault plan slowed down.
	Stragglers int
	// Retries counts transient collective failures that were retried.
	Retries int64
	// RetryTime is the simulated time those retries cost (re-transfers
	// charged to Comm plus exponential backoff charged to Idle).
	RetryTime timing.Seconds
	// Crashes counts device crash/restart events.
	Crashes int64
	// RecoveryTime is the simulated restart downtime crashed devices paid
	// (the lost attempts' cost shows up in WallClock, not here).
	RecoveryTime timing.Seconds
}

// Any reports whether any fault was injected or any device slowed.
func (f FaultStats) Any() bool {
	return f.Stragglers > 0 || f.Retries > 0 || f.Crashes > 0
}

// Phases returns the run's per-device breakdowns (index = device), a copy
// of PerDevice for programmatic consumers (examples, dashboards).
func (r *RunResult) Phases() []Breakdown {
	return slices.Clone(r.PerDevice)
}

// OverlapSeconds sums, across all devices, the seconds compute and
// messages ran concurrently (zero for schedules that hide nothing).
func (r *RunResult) OverlapSeconds() timing.Seconds {
	var t timing.Seconds
	for _, b := range r.PerDevice {
		t += b.Overlap
	}
	return t
}

// Throughput returns steady-state epochs per simulated second, excluding
// the periodic bit-width assignment stalls (which the paper reports
// separately in its wall-clock decomposition, Fig. 10b).
func (r *RunResult) Throughput() float64 {
	t := r.WallClock - r.AssignTime
	if t <= 0 {
		return 0
	}
	return float64(len(r.Epochs)) / float64(t)
}

// AvgBreakdown averages the per-device breakdowns.
func (r *RunResult) AvgBreakdown() Breakdown {
	var sum Breakdown
	for _, b := range r.PerDevice {
		sum = sum.Add(b)
	}
	if len(r.PerDevice) == 0 {
		return sum
	}
	return sum.Scale(1 / float64(len(r.PerDevice)))
}

// CommCost returns communication time ÷ total time averaged over devices —
// Table 1's "Communication Cost". Idle (straggler wait at barriers)
// counts toward communication, as it does when the paper divides average
// communication time by average epoch time.
func (r *RunResult) CommCost() float64 {
	b := r.AvgBreakdown()
	tot := b.Total()
	if tot <= 0 {
		return 0
	}
	return float64((b.Comm + b.Idle) / tot)
}

// PerEpoch returns the average per-epoch breakdown.
func (r *RunResult) PerEpoch() Breakdown {
	if len(r.Epochs) == 0 {
		return Breakdown{}
	}
	return r.AvgBreakdown().Scale(1 / float64(len(r.Epochs)))
}

// Curve returns (epochs, val accuracies) for plotting, skipping epochs
// where evaluation did not run.
func (r *RunResult) Curve() (xs []int, ys []float64) {
	for _, e := range r.Epochs {
		if !math.IsNaN(e.ValAcc) {
			xs = append(xs, e.Epoch)
			ys = append(ys, e.ValAcc)
		}
	}
	return xs, ys
}

// Package cluster is the simulated testbed's collective cost model: pure
// functions that say what one collective — a ring all2all round, an
// all-reduce, a gather, a scatter, a sequential broadcast — costs a device
// under a timing.CostModel, given how many bytes each device ships to each
// other. They move no data and keep no state. The collective engine behind
// every runtime backend (internal/core) charges its clocks through them.
// The conformance suites price the ring all2all and the all-reduce through
// the same functions, but re-derive the gather, scatter, broadcast,
// split-phase and overlap charges from timing.CostModel.TransferTime loops,
// as a reference independent of this package.
package cluster

import (
	"slices"

	"repro/internal/timing"
)

// All2AllRoundTime returns ring round `round`'s cost for the given
// per-destination sizes (bytes[src][dst]): the slowest pair of that round
// (synchronized rounds — the straggler effect of §2.2). Every runtime
// backend must charge this same schedule, round by round in order, so
// simulated clocks stay bit-identical across transports.
func All2AllRoundTime(model *timing.CostModel, bytes [][]int, round int) timing.Seconds {
	n := len(bytes)
	var roundTime timing.Seconds
	for src := 0; src < n; src++ {
		dst := (src + round) % n
		roundTime = max(roundTime, model.TransferTime(src, dst, bytes[src][dst]))
	}
	return roundTime
}

// All2AllTime returns what one ring all2all with the given per-destination
// sizes (bytes[src][dst]) costs: its rounds' charges, summed in schedule
// order. The overlap analysis and the conformance suites price exchanges
// with it. The bit-width assigner does not: bitassign.Objective takes
// Eqn. 10's maximum over all pairs instead of a sum of rounds.
func All2AllTime(model *timing.CostModel, bytes [][]int) timing.Seconds {
	n := len(bytes)
	var total timing.Seconds
	for round := 1; round < n; round++ {
		total += All2AllRoundTime(model, bytes, round)
	}
	return total
}

// AllReduceTime returns what one allreduce of bytes payload bytes costs
// every device of an n-device runtime: the cheapest of the three textbook
// schedules (Thakur, Rabenseifner & Gropp, "Optimization of Collective
// Communication Operations in MPICH", 2005) under the cost model. With
// p = 2^⌊log₂N⌋:
//
//   - ring: 2(N−1) steps of B/N, rank r sending to r+1;
//   - recursive doubling: log₂p exchanges of B, step k pairing r with
//     r XOR 2^k;
//   - Rabenseifner: log₂p recursive-halving exchanges of B/2^(k+1), then
//     the mirrored recursive-doubling all-gather.
//
// When N is not a power of two, the two log-step schedules first fold the
// first 2(N−p) ranks in pairs, even into odd, and unfold them after. Each
// step costs its slowest pair, θ·bytes + γ — the rule ring all2all rounds
// follow — so the schedule and its charge are the same on every rank. Every
// runtime backend must charge this same function so simulated clocks stay
// identical across transports, whatever moves underneath.
func AllReduceTime(model *timing.CostModel, n, bytes int) timing.Seconds {
	costs := allReduceCosts(model, n, bytes)
	return slices.Min(costs[:])
}

// The allreduce schedules AllReduceTime picks from, indexing
// allReduceCosts.
const (
	ringSchedule = iota
	doublingSchedule
	rabenseifnerSchedule
	numSchedules
)

// allReduceCosts returns each schedule's charge for one allreduce of bytes
// payload bytes on n devices.
func allReduceCosts(model *timing.CostModel, n, bytes int) [numSchedules]timing.Seconds {
	var costs [numSchedules]timing.Seconds
	if n <= 1 {
		return costs
	}
	b := float64(bytes)
	step := func(theta, b float64) timing.Seconds {
		return timing.Seconds(theta*b + model.Gamma())
	}
	var ring float64
	for r := 0; r < n; r++ {
		ring = max(ring, model.Theta(r, (r+1)%n))
	}
	costs[ringSchedule] = timing.Seconds(2*(n-1)) * step(ring, b/float64(n))

	// MPICH's fold: rank 2i+1 (i < rem) stands in for 2i and itself, every
	// rank from 2·rem on stands in for itself alone.
	p := 1
	for p*2 <= n {
		p *= 2
	}
	rem := n - p
	rankOf := func(v int) int {
		if v < rem {
			return 2*v + 1
		}
		return v + rem
	}
	var fold timing.Seconds
	if rem > 0 {
		var in, out float64
		for i := 0; i < rem; i++ {
			in = max(in, model.Theta(2*i, 2*i+1))
			out = max(out, model.Theta(2*i+1, 2*i))
		}
		fold = step(in, b) + step(out, b)
	}
	costs[doublingSchedule] = fold
	costs[rabenseifnerSchedule] = fold
	half := b
	for mask := 1; mask < p; mask *= 2 {
		var theta float64
		for v := 0; v < p; v++ {
			theta = max(theta, model.Theta(rankOf(v), rankOf(v^mask)))
		}
		half /= 2 // a halving exchange and its mirror in the all-gather
		costs[doublingSchedule] += step(theta, b)
		costs[rabenseifnerSchedule] += 2 * step(theta, half)
	}
	return costs
}

// GatherTime returns what a gather into root costs every device for the
// given sizes (bytes[src][root]): the slowest incoming transfer.
func GatherTime(model *timing.CostModel, bytes [][]int, root int) timing.Seconds {
	var t timing.Seconds
	for src := range bytes {
		if src != root {
			t = max(t, model.TransferTime(src, root, bytes[src][root]))
		}
	}
	return t
}

// ScatterTime returns what a scatter from root costs every device for the
// given sizes (bytes[root][dst]): the slowest outgoing transfer.
func ScatterTime(model *timing.CostModel, bytes [][]int, root int) timing.Seconds {
	var t timing.Seconds
	for dst, size := range bytes[root] {
		if dst != root {
			t = max(t, model.TransferTime(root, dst, size))
		}
	}
	return t
}

// BroadcastTime returns what root's sequential broadcast costs every device
// (bytes[root][dst], SANCUS's pattern, §5.1): root serializes its sends, so
// the transfers add up, summed in rank order. Like every function here,
// backends must charge exactly this accumulation so simulated clocks stay
// bit-identical across transports.
func BroadcastTime(model *timing.CostModel, bytes [][]int, root int) timing.Seconds {
	var t timing.Seconds
	for dst, size := range bytes[root] {
		if dst != root {
			t += model.TransferTime(root, dst, size)
		}
	}
	return t
}

// Package bitassign implements the paper's adaptive bit-width assignment
// (§3.3, §4.2): messages headed to each device pair are sorted by their
// gradient-variance contribution β (Theorem 3), chunked into groups that
// share one bit-width variable, and the variance–time bi-objective problem
// (Eqn. 10 + Eqn. 11, scalarized as Eqn. 12) is solved to pick each
// group's width from B = {2, 4, 8}.
//
// The paper hands the scalarized MILP to GUROBI; Solve finds the same
// optimum without one. At a fixed straggler time the variance term
// separates by pair, so Solve builds each pair's (bytes, variance) Pareto
// frontier by dynamic programming and sweeps the straggler time over the
// frontiers' times (see Solve for the tie rule and the cost).
package bitassign

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/quant"
)

// Message is one remote message (a node's embedding row bound for one
// destination device) as the assigner sees it.
type Message struct {
	Pair int     // which device pair (flattened index) carries it
	Slot int     // wire position within the pair
	Dim  int     // D_k: feature dimension
	Beta float64 // β_k = Σ_v α²_{k,v} · D_k (max−min)² / 6
}

// Group is a set of messages sharing one bit-width variable.
type Group struct {
	Pair    int
	Dim     int
	Beta    float64 // Σ β over members
	Members []int   // indices into the problem's message slice
}

// Problem is one solvable instance (one layer direction's communication
// round).
type Problem struct {
	Messages []Message
	// Groups holds each pair's groups contiguously, pairs in ascending
	// order: NewProblem's layout, which Solve reads and a hand-built
	// problem must keep.
	Groups []Group
	// Per-pair affine time model: t_i = Theta[i]·bytes_i + Gamma[i].
	Theta, Gamma []float64
	// Lambda trades variance (λ→1) against time (λ→0), Eqn. 12.
	Lambda float64
}

// NewProblem groups msgs per pair (sorted by β descending, chunks of
// groupSize) and returns a ready-to-solve instance. theta/gamma are
// indexed by pair id.
//
// Pairs come in ascending order; within a pair, ties in β go to the lower
// slot (NaN β sorts below every number). The messages are bucketed by pair
// into one flat slice of keys, each bucket sorted in place, and every
// group's Members share one backing array.
func NewProblem(msgs []Message, groupSize int, theta, gamma []float64, lambda float64) *Problem {
	if groupSize <= 0 {
		groupSize = 1
	}
	p := &Problem{Messages: msgs, Theta: theta, Gamma: gamma, Lambda: lambda}
	// start[pair] is where the pair's bucket begins in keys, and after the
	// fill where the next pair's does.
	pairs := 0
	for _, m := range msgs {
		pairs = max(pairs, m.Pair+1)
	}
	start := make([]int, pairs+1)
	for _, m := range msgs {
		start[m.Pair+1]++
	}
	groups := 0
	for pair := range pairs {
		groups += (start[pair+1] + groupSize - 1) / groupSize
		start[pair+1] += start[pair]
	}
	type key struct {
		beta  float64
		slot  int
		index int
	}
	keys := make([]key, len(msgs))
	for i, m := range msgs {
		keys[start[m.Pair]] = key{m.Beta, m.Slot, i}
		start[m.Pair]++
	}

	members := make([]int, len(msgs))
	p.Groups = make([]Group, 0, groups)
	lo := 0
	for pair := range pairs {
		bucket := keys[lo:start[pair]]
		slices.SortFunc(bucket, func(a, b key) int {
			return cmp.Or(cmp.Compare(b.beta, a.beta), a.slot-b.slot)
		})
		for j, k := range bucket {
			members[lo+j] = k.index
		}
		for g := 0; g < len(bucket); g += groupSize {
			end := min(g+groupSize, len(bucket))
			grp := Group{Pair: pair, Dim: msgs[bucket[g].index].Dim, Members: members[lo+g : lo+end : lo+end]}
			for _, k := range bucket[g:end] {
				grp.Beta += k.beta
			}
			p.Groups = append(p.Groups, grp)
		}
		lo = start[pair]
	}
	return p
}

// bytes returns the wire bytes group g costs at width b (header + packed
// codes per member row).
func (g *Group) bytes(b quant.BitWidth) int {
	return len(g.Members) * (8 + b.PackedSize(g.Dim))
}

// varTerm returns β/(2^b−1)², Eqn. 11's per-group contribution.
func varTerm(beta float64, b quant.BitWidth) float64 {
	l := float64(b.Levels())
	return beta / (l * l)
}

// Objective evaluates widths (one per group): total quantization variance
// (Eqn. 11), the straggler time Z = max_i t_i (Eqn. 10), and the
// normalized weighted sum (Eqn. 12). Normalization divides variance by its
// all-2-bit value and time by its all-8-bit value so λ weighs comparable
// magnitudes.
func (p *Problem) Objective(widths []quant.BitWidth) (variance, maxTime, scalar float64) {
	if len(widths) != len(p.Groups) {
		panic(fmt.Sprintf("bitassign: %d widths for %d groups", len(widths), len(p.Groups)))
	}
	variance, maxTime = p.eval(func(i int) quant.BitWidth { return widths[i] })
	varNorm, timeNorm := p.normalizers()
	scalar = p.Lambda*variance/varNorm + (1-p.Lambda)*maxTime/timeNorm
	return variance, maxTime, scalar
}

// normalizers returns (variance at all-2-bit, time at all-8-bit), both
// clamped away from zero.
func (p *Problem) normalizers() (float64, float64) {
	v, _ := p.eval(func(int) quant.BitWidth { return quant.B2 })
	_, t := p.eval(func(int) quant.BitWidth { return quant.B8 })
	if v <= 0 {
		v = 1
	}
	if t <= 0 {
		t = 1
	}
	return v, t
}

// eval returns Eqn. 11's variance and Eqn. 10's straggler time when group
// i has width w(i).
func (p *Problem) eval(w func(i int) quant.BitWidth) (variance, maxTime float64) {
	pairBytes := make([]int, len(p.Theta))
	for i := range p.Groups {
		g := &p.Groups[i]
		variance += varTerm(g.Beta, w(i))
		pairBytes[g.Pair] += g.bytes(w(i))
	}
	for _, g := range p.Groups {
		maxTime = max(maxTime, p.pairTime(g.Pair, pairBytes[g.Pair]))
	}
	return variance, maxTime
}

// Solve returns one width per group minimizing Eqn. 12's scalar exactly.
//
// At a fixed straggler time Z the variance term separates by pair: each
// pair independently takes its least-variance assignment whose time is at
// most Z. So Solve builds every pair's (bytes, variance) Pareto frontier by
// dynamic programming over the pair's groups, then sweeps Z upward over the
// frontier points' times, starting at the largest all-2-bit pair time. At
// each Z every pair takes its last frontier point with time ≤ Z, and the
// lowest λ'·ΣV + μ'·Z wins. Ties go to the smallest Z; at that Z each pair
// holds its least-variance point, and of equal-variance points the one with
// the fewest bytes.
//
// A pair with g groups and a frontier of F points costs O(g·F) twice (the
// frontier, then its replay for the chosen point's widths), and the sweep
// O(P log P) over all P frontier points. F is at most the number of distinct
// byte totals: about g² when a pair's groups share one dimension and one
// member count, as NewProblem builds them from one layer's messages.
//
// Solve walks Groups in NewProblem's layout (see Problem.Groups) and panics,
// naming the pair, on groups that break it.
func (p *Problem) Solve() []quant.BitWidth {
	widths := make([]quant.BitWidth, len(p.Groups))
	if len(widths) == 0 {
		return widths
	}
	varNorm, timeNorm := p.normalizers()
	lam, mu := p.Lambda/varNorm, (1-p.Lambda)/timeNorm

	runs := p.pairRuns()
	pairs := len(runs) - 1
	fronts := make([][]point, pairs)
	var d dp
	events := 0
	z := math.Inf(-1)
	for k := range pairs {
		fronts[k] = slices.Clone(d.frontier(p.Groups[runs[k]:runs[k+1]], false))
		events += len(fronts[k]) - 1
		z = max(z, p.pairTime(p.Groups[runs[k]].Pair, fronts[k][0].bytes))
	}

	// Start at the smallest feasible Z; every later frontier point is an
	// event that raises Z to its time.
	type event struct {
		t          float64
		pair, next int
	}
	queue := make([]event, 0, events)
	at := make([]int, pairs) // each pair's point at the current Z
	variance := 0.0
	for k, f := range fronts {
		pair := p.Groups[runs[k]].Pair
		for i := 1; i < len(f); i++ {
			if t := p.pairTime(pair, f[i].bytes); t <= z {
				at[k] = i
			} else {
				queue = append(queue, event{t, k, i})
			}
		}
		variance += f[at[k]].variance
	}
	slices.SortFunc(queue, func(a, b event) int { return cmp.Compare(a.t, b.t) })
	best, bestScore := slices.Clone(at), lam*variance+mu*z
	for i := 0; i < len(queue); {
		// Equal times within a pair (rounding) come in any order: keep the last.
		for z = queue[i].t; i < len(queue) && queue[i].t == z; i++ {
			if e := queue[i]; e.next > at[e.pair] {
				variance += fronts[e.pair][e.next].variance - fronts[e.pair][at[e.pair]].variance
				at[e.pair] = e.next
			}
		}
		if s := lam*variance + mu*z; s < bestScore {
			bestScore = s
			copy(best, at)
		}
	}

	levels := len(quant.Candidates)
	for k := range pairs {
		run := widths[runs[k]:runs[k+1]]
		d.frontier(p.Groups[runs[k]:runs[k+1]], true)
		for j, s := best[k], len(run)-1; s >= 0; s-- {
			from := d.from[d.starts[s]+j]
			run[s] = quant.Candidates[from%levels]
			j = from / levels
		}
	}
	return widths
}

// pairRuns returns where each pair's run of groups starts in p.Groups,
// followed by len(p.Groups). It panics, naming the pair, if a pair's
// groups are split apart or pairs come out of ascending order.
func (p *Problem) pairRuns() []int {
	runs := []int{0}
	for i := 1; i < len(p.Groups); i++ {
		prev, pair := p.Groups[i-1].Pair, p.Groups[i].Pair
		if pair < prev {
			panic(fmt.Sprintf("bitassign: group %d of pair %d follows pair %d's: each pair's groups must be contiguous, pairs ascending", i, pair, prev))
		}
		if pair != prev {
			runs = append(runs, i)
		}
	}
	return append(runs, len(p.Groups))
}

// point is one (bytes, variance) trade-off of a pair.
type point struct {
	bytes    int
	variance float64
}

// dp is the frontier's dynamic program, its buffers reused across pairs.
type dp struct {
	front, next []point
	// With a trail, from[starts[s]+j] is point j's predecessor index after
	// group s, times len(quant.Candidates), plus its width's index.
	from, starts []int
}

// frontier returns the Pareto frontier of one pair's run of groups: bytes
// ascending, variance strictly descending. Each group offers every point so
// far at each width in quant.Candidates; a candidate survives only if no
// other has at most its bytes and no more variance, the earlier point and
// then the narrower width winning exact ties. The result is d's buffer,
// valid until the next call.
func (d *dp) frontier(gs []Group, trail bool) []point {
	var step [3]point // B = {2, 4, 8}
	var at [3]int
	d.front = append(d.front[:0], point{})
	d.from, d.starts = d.from[:0], d.starts[:0]
	for i := range gs {
		for w, b := range quant.Candidates {
			step[w] = point{gs[i].bytes(b), varTerm(gs[i].Beta, b)}
		}
		d.starts = append(d.starts, len(d.from))
		d.next, at = d.next[:0], [3]int{}
		for {
			w, c := -1, point{}
			for k := range at {
				if at[k] == len(d.front) {
					continue
				}
				e := point{d.front[at[k]].bytes + step[k].bytes, d.front[at[k]].variance + step[k].variance}
				if w < 0 || e.bytes < c.bytes || e.bytes == c.bytes && e.variance < c.variance {
					w, c = k, e
				}
			}
			if w < 0 {
				break
			}
			if len(d.next) == 0 || c.variance < d.next[len(d.next)-1].variance {
				d.next = append(d.next, c)
				if trail {
					d.from = append(d.from, at[w]*len(quant.Candidates)+w)
				}
			}
			at[w]++
		}
		d.front, d.next = d.next, d.front
	}
	return d.front
}

// pairTime is Eqn. 10's t_i for a pair sending the given bytes.
func (p *Problem) pairTime(pair, bytes int) float64 {
	return p.Theta[pair]*float64(bytes) + p.Gamma[pair]
}

// SolveExhaustive enumerates all 3^G assignments (for tests / tiny
// problems). Panics if the instance has more than maxGroups groups.
func (p *Problem) SolveExhaustive(maxGroups int) []quant.BitWidth {
	n := len(p.Groups)
	if n > maxGroups {
		panic(fmt.Sprintf("bitassign: exhaustive solve on %d groups (cap %d)", n, maxGroups))
	}
	widths, best := make([]quant.BitWidth, n), make([]quant.BitWidth, n)
	bestScore := math.Inf(1)
	for code := range int(math.Pow(3, float64(n))) {
		for i, c := 0, code; i < n; i, c = i+1, c/3 {
			widths[i] = quant.Candidates[c%3]
		}
		if _, _, s := p.Objective(widths); s < bestScore {
			bestScore = s
			copy(best, widths)
		}
	}
	return best
}

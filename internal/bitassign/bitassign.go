// Package bitassign implements the paper's adaptive bit-width assignment
// (§3.3, §4.2): messages headed to each device pair are sorted by their
// gradient-variance contribution β (Theorem 3), chunked into groups that
// share one bit-width variable, and the variance–time bi-objective problem
// (Eqn. 10 + Eqn. 11, scalarized as Eqn. 12) is solved to pick each
// group's width from B = {2, 4, 8}.
//
// The paper hands the scalarized MILP to GUROBI; offline we use a greedy
// upgrade pass followed by single-move local search, which the tests show
// matches exhaustive enumeration on every small instance tried (the
// objective's marginal gains are diminishing in width, which is what makes
// greedy strong here).
package bitassign

import (
	"fmt"
	"math"
	"sort"

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
	Groups   []Group
	// Per-pair affine time model: t_i = Theta[i]·bytes_i + Gamma[i].
	Theta, Gamma []float64
	// Lambda trades variance (λ→1) against time (λ→0), Eqn. 12.
	Lambda float64
}

// NewProblem groups msgs per pair (sorted by β descending, chunks of
// groupSize) and returns a ready-to-solve instance. theta/gamma are
// indexed by pair id.
func NewProblem(msgs []Message, groupSize int, theta, gamma []float64, lambda float64) *Problem {
	if groupSize <= 0 {
		groupSize = 1
	}
	p := &Problem{Messages: msgs, Theta: theta, Gamma: gamma, Lambda: lambda}
	byPair := map[int][]int{}
	for i, m := range msgs {
		byPair[m.Pair] = append(byPair[m.Pair], i)
	}
	pairs := make([]int, 0, len(byPair))
	for pair := range byPair {
		pairs = append(pairs, pair)
	}
	sort.Ints(pairs)
	for _, pair := range pairs {
		idx := byPair[pair]
		sort.Slice(idx, func(a, b int) bool {
			if msgs[idx[a]].Beta != msgs[idx[b]].Beta {
				return msgs[idx[a]].Beta > msgs[idx[b]].Beta
			}
			return msgs[idx[a]].Slot < msgs[idx[b]].Slot
		})
		for lo := 0; lo < len(idx); lo += groupSize {
			hi := lo + groupSize
			if hi > len(idx) {
				hi = len(idx)
			}
			g := Group{Pair: pair, Dim: msgs[idx[lo]].Dim}
			for _, mi := range idx[lo:hi] {
				g.Beta += msgs[mi].Beta
				g.Members = append(g.Members, mi)
			}
			p.Groups = append(p.Groups, g)
		}
	}
	return p
}

// groupBytes returns the wire bytes group g costs at width b (header + packed
// codes per member row).
func (p *Problem) groupBytes(g *Group, b quant.BitWidth) int {
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
	pairBytes := map[int]int{}
	for i, g := range p.Groups {
		variance += varTerm(g.Beta, widths[i])
		pairBytes[g.Pair] += p.groupBytes(&p.Groups[i], widths[i])
	}
	for pair, bytes := range pairBytes {
		t := p.Theta[pair]*float64(bytes) + p.Gamma[pair]
		if t > maxTime {
			maxTime = t
		}
	}
	varNorm, timeNorm := p.normalizers()
	scalar = p.Lambda*variance/varNorm + (1-p.Lambda)*maxTime/timeNorm
	return variance, maxTime, scalar
}

// normalizers returns (variance at all-2-bit, time at all-8-bit), both
// clamped away from zero.
func (p *Problem) normalizers() (float64, float64) {
	var v float64
	pairBytes := map[int]int{}
	for i, g := range p.Groups {
		v += varTerm(g.Beta, quant.B2)
		pairBytes[g.Pair] += p.groupBytes(&p.Groups[i], quant.B8)
	}
	var t float64
	for pair, bytes := range pairBytes {
		tt := p.Theta[pair]*float64(bytes) + p.Gamma[pair]
		if tt > t {
			t = tt
		}
	}
	if v <= 0 {
		v = 1
	}
	if t <= 0 {
		t = 1
	}
	return v, t
}

// Solve returns one width per group minimizing the scalarized objective:
// greedy upgrades from all-2-bit, then single-move local search (both
// upgrades and downgrades) to a local optimum.
//
// Moves are evaluated incrementally: a single group's width change shifts
// one variance term and one pair's time, and the minimax term is
// re-evaluated in O(1) by tracking the top-two pair times. Each sweep is
// O(G) and a solve takes O(G) sweeps, so the sweep's inner loop is what a
// solve costs: it runs on dense per-group tables (pair index, variance term
// and wire bytes at each width) with no map lookups. A 230-group solve
// takes about a millisecond (BenchmarkSolve); the benchmark harness's
// bitassign.solve_ms, which also times NewProblem's grouping and sorting of
// some 20 000 messages, reads about 3 ms on its halo-reddit workload.
func (p *Problem) Solve() []quant.BitWidth {
	n := len(p.Groups)
	widths := make([]quant.BitWidth, n)
	if n == 0 {
		return widths
	}
	varNorm, timeNorm := p.normalizers()
	lam, mu := p.Lambda/varNorm, (1-p.Lambda)/timeNorm

	// Dense pair indices, in order of first appearance among the groups.
	pairOf := make([]int, n)
	dense := make([]int, len(p.Theta))
	for i := range dense {
		dense[i] = -1
	}
	var pairTheta, pairGamma []float64
	for i := range p.Groups {
		pair := p.Groups[i].Pair
		if dense[pair] < 0 {
			dense[pair] = len(pairTheta)
			pairTheta = append(pairTheta, p.Theta[pair])
			pairGamma = append(pairGamma, p.Gamma[pair])
		}
		pairOf[i] = dense[pair]
	}
	// Per-group variance term and wire bytes at each candidate width.
	// level[i] indexes quant.Candidates; every group starts at 2 bits.
	levels := len(quant.Candidates)
	varAt := make([]float64, n*levels)
	bytesAt := make([]int, n*levels)
	for i := range p.Groups {
		g := &p.Groups[i]
		for k, w := range quant.Candidates {
			varAt[i*levels+k] = varTerm(g.Beta, w)
			bytesAt[i*levels+k] = p.groupBytes(g, w)
		}
	}
	level := make([]int, n)

	// State: per-pair bytes, total variance, and the pair-time top-2.
	pairBytes := make([]float64, len(pairTheta))
	variance := 0.0
	for i := range p.Groups {
		variance += varAt[i*levels]
		pairBytes[pairOf[i]] += float64(bytesAt[i*levels])
	}
	// top-two pair times (values only; recomputed as needed).
	recomputeTop2 := func() (z1, z2 float64, z1idx int) {
		z1, z2, z1idx = -1, -1, -1
		for idx := range pairBytes {
			t := pairTheta[idx]*pairBytes[idx] + pairGamma[idx]
			if t > z1 {
				z2 = z1
				z1, z1idx = t, idx
			} else if t > z2 {
				z2 = t
			}
		}
		return z1, z2, z1idx
	}
	z1, z2, z1idx := recomputeTop2()
	cur := lam*variance + mu*z1

	// evalMove returns the score after moving group i to level k.
	evalMove := func(i, k int) float64 {
		idx := pairOf[i]
		at, to := i*levels+level[i], i*levels+k
		dv := varAt[to] - varAt[at]
		db := float64(bytesAt[to] - bytesAt[at])
		newT := pairTheta[idx]*(pairBytes[idx]+db) + pairGamma[idx]
		// New max: the changed pair vs the best of the others.
		others := z1
		if idx == z1idx {
			others = z2
		}
		z := newT
		if others > z {
			z = others
		}
		return lam*(variance+dv) + mu*z
	}

	// Each move changes one group by one level; the number of productive
	// moves is bounded by 2·n·levels in practice. Cap defensively.
	for iter := 0; iter < 8*n+64; iter++ {
		bestGain := 1e-15
		bestIdx, bestLevel := -1, 0
		for i := range level {
			if k := level[i] + 1; k < levels {
				if gain := cur - evalMove(i, k); gain > bestGain {
					bestGain, bestIdx, bestLevel = gain, i, k
				}
			}
			if k := level[i] - 1; k >= 0 {
				if gain := cur - evalMove(i, k); gain > bestGain {
					bestGain, bestIdx, bestLevel = gain, i, k
				}
			}
		}
		if bestIdx < 0 {
			break
		}
		at, to := bestIdx*levels+level[bestIdx], bestIdx*levels+bestLevel
		variance += varAt[to] - varAt[at]
		pairBytes[pairOf[bestIdx]] += float64(bytesAt[to] - bytesAt[at])
		level[bestIdx] = bestLevel
		z1, z2, z1idx = recomputeTop2()
		cur = lam*variance + mu*z1
	}
	for i, k := range level {
		widths[i] = quant.Candidates[k]
	}
	return widths
}

// SolveExhaustive enumerates all 3^G assignments (for tests / tiny
// problems). Panics if the instance has more than maxGroups groups.
func (p *Problem) SolveExhaustive(maxGroups int) []quant.BitWidth {
	n := len(p.Groups)
	if n > maxGroups {
		panic(fmt.Sprintf("bitassign: exhaustive solve on %d groups (cap %d)", n, maxGroups))
	}
	widths := make([]quant.BitWidth, n)
	best := make([]quant.BitWidth, n)
	bestScore := math.Inf(1)
	options := []quant.BitWidth{quant.B2, quant.B4, quant.B8}
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			_, _, s := p.Objective(widths)
			if s < bestScore {
				bestScore = s
				copy(best, widths)
			}
			return
		}
		for _, w := range options {
			widths[i] = w
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// ExpandToSlots maps group widths back to per-message widths, returned as
// widthsByPair[pair][slot].
func (p *Problem) ExpandToSlots(groupWidths []quant.BitWidth) map[int][]quant.BitWidth {
	// Determine slot counts per pair.
	maxSlot := map[int]int{}
	for _, m := range p.Messages {
		if m.Slot+1 > maxSlot[m.Pair] {
			maxSlot[m.Pair] = m.Slot + 1
		}
	}
	out := map[int][]quant.BitWidth{}
	for pair, n := range maxSlot {
		ws := make([]quant.BitWidth, n)
		for i := range ws {
			ws[i] = quant.B8 // safe default for unassigned slots
		}
		out[pair] = ws
	}
	for gi, g := range p.Groups {
		for _, mi := range g.Members {
			m := p.Messages[mi]
			out[m.Pair][m.Slot] = groupWidths[gi]
		}
	}
	return out
}

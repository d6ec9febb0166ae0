package bitassign

import (
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// refSolve is Solve as it stood while its inner loop still ran on three
// maps (pair → dense index, next/prev width). Frozen: it is the oracle the
// map-free Solve must reproduce width for width. Do not optimize it.
func refSolve(p *Problem) []quant.BitWidth {
	n := len(p.Groups)
	widths := make([]quant.BitWidth, n)
	for i := range widths {
		widths[i] = quant.B2
	}
	if n == 0 {
		return widths
	}
	varNorm, timeNorm := p.normalizers()
	lam, mu := p.Lambda/varNorm, (1-p.Lambda)/timeNorm

	// State: per-pair bytes, total variance, and the pair-time top-2.
	pairIDs := map[int]int{} // pair → dense index
	for _, g := range p.Groups {
		if _, ok := pairIDs[g.Pair]; !ok {
			pairIDs[g.Pair] = len(pairIDs)
		}
	}
	pairBytes := make([]float64, len(pairIDs))
	pairTheta := make([]float64, len(pairIDs))
	pairGamma := make([]float64, len(pairIDs))
	for pair, idx := range pairIDs {
		pairTheta[idx] = p.Theta[pair]
		pairGamma[idx] = p.Gamma[pair]
	}
	variance := 0.0
	for i := range p.Groups {
		g := &p.Groups[i]
		variance += varTerm(g.Beta, widths[i])
		pairBytes[pairIDs[g.Pair]] += float64(p.groupBytes(g, widths[i]))
	}
	pairTime := func(idx int) float64 { return pairTheta[idx]*pairBytes[idx] + pairGamma[idx] }
	// top-two pair times (values only; recomputed as needed).
	recomputeTop2 := func() (z1, z2 float64, z1idx int) {
		z1, z2, z1idx = -1, -1, -1
		for idx := range pairBytes {
			t := pairTime(idx)
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

	score := func(v, z float64) float64 { return lam*v + mu*z }
	cur := score(variance, z1)

	next := map[quant.BitWidth]quant.BitWidth{quant.B2: quant.B4, quant.B4: quant.B8}
	prev := map[quant.BitWidth]quant.BitWidth{quant.B8: quant.B4, quant.B4: quant.B2}

	// evalMove returns the score after changing group i to w.
	evalMove := func(i int, w quant.BitWidth) float64 {
		g := &p.Groups[i]
		idx := pairIDs[g.Pair]
		dv := varTerm(g.Beta, w) - varTerm(g.Beta, widths[i])
		db := float64(p.groupBytes(g, w) - p.groupBytes(g, widths[i]))
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
		return score(variance+dv, z)
	}
	apply := func(i int, w quant.BitWidth) {
		g := &p.Groups[i]
		idx := pairIDs[g.Pair]
		variance += varTerm(g.Beta, w) - varTerm(g.Beta, widths[i])
		pairBytes[idx] += float64(p.groupBytes(g, w) - p.groupBytes(g, widths[i]))
		widths[i] = w
		z1, z2, z1idx = recomputeTop2()
		cur = score(variance, z1)
	}

	improve := func() bool {
		bestGain := 1e-15
		bestIdx, bestW := -1, quant.B2
		for i := range widths {
			if w, ok := next[widths[i]]; ok {
				if gain := cur - evalMove(i, w); gain > bestGain {
					bestGain, bestIdx, bestW = gain, i, w
				}
			}
			if w, ok := prev[widths[i]]; ok {
				if gain := cur - evalMove(i, w); gain > bestGain {
					bestGain, bestIdx, bestW = gain, i, w
				}
			}
		}
		if bestIdx < 0 {
			return false
		}
		apply(bestIdx, bestW)
		return true
	}
	// Each move changes one group by one level; the number of productive
	// moves is bounded by 2·n·levels in practice. Cap defensively.
	for iter := 0; iter < 8*n+64; iter++ {
		if !improve() {
			break
		}
	}
	return widths
}

// TestSolveMatchesMapBasedReference holds the dense-index Solve to the
// frozen map-based one on random problems of every shape the trainer
// produces: few and many pairs, groups of one and of many, λ across its
// range, pair ids that are sparse in Theta, and equal-β ties.
func TestSolveMatchesMapBasedReference(t *testing.T) {
	rng := tensor.NewRNG(41)
	for trial := 0; trial < 300; trial++ {
		nPairs := 1 + rng.Intn(56)
		nMsgs := rng.Intn(900)
		groupSize := 1 + rng.Intn(40)
		lambda := []float64{0, 0.1, 0.5, 0.9, 1}[rng.Intn(5)]
		p := randomProblem(rng, nMsgs, nPairs, groupSize, lambda)
		for i := range p.Theta {
			// Heterogeneous links, so the straggler pair changes as moves land.
			p.Theta[i] *= 1 + 3*rng.Float64()
			p.Gamma[i] *= rng.Float64()
		}
		if trial%7 == 0 {
			for i := range p.Groups {
				p.Groups[i].Beta = float64(rng.Intn(3)) // ties, and β = 0
			}
		}
		got, want := p.Solve(), refSolve(p)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d widths, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%d groups, %d pairs, λ=%v): group %d got %d-bit, reference %d-bit",
					trial, len(p.Groups), nPairs, lambda, i, got[i], want[i])
			}
		}
	}
}

// TestSolveGroupsInAnyPairOrder feeds Solve hand-built groups whose pairs
// are neither sorted nor contiguous — NewProblem never produces that, but
// Groups is an exported field — and checks the first-appearance pair
// indexing still matches the reference.
func TestSolveGroupsInAnyPairOrder(t *testing.T) {
	rng := tensor.NewRNG(43)
	theta, gamma := uniformCost(12)
	for trial := 0; trial < 50; trial++ {
		p := &Problem{Theta: theta, Gamma: gamma, Lambda: 0.5}
		for g := 0; g < 40; g++ {
			p.Groups = append(p.Groups, Group{
				Pair: []int{11, 2, 7, 2, 0}[rng.Intn(5)], Dim: 8 + rng.Intn(600),
				Beta: rng.Float64() * 5, Members: make([]int, 1+rng.Intn(9)),
			})
		}
		got, want := p.Solve(), refSolve(p)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d group %d: got %d-bit, reference %d-bit", trial, i, got[i], want[i])
			}
		}
	}
}

var sinkWidths []quant.BitWidth

// BenchmarkSolve times one solve at the size of the halo-reddit benchmark
// workload's layer-0 problem: 20 400 messages over 56 pairs, 232 groups.
func BenchmarkSolve(b *testing.B) {
	p := randomProblem(tensor.NewRNG(1), 20400, 56, 88, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkWidths = p.Solve()
	}
}

package bitassign

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func uniformCost(pairs int) ([]float64, []float64) {
	theta := make([]float64, pairs)
	gamma := make([]float64, pairs)
	for i := range theta {
		theta[i] = 8e-11 // 100 Gbps
		gamma[i] = 50e-6
	}
	return theta, gamma
}

func randomProblem(rng *tensor.RNG, nMsgs, nPairs, groupSize int, lambda float64) *Problem {
	msgs := make([]Message, nMsgs)
	slotPerPair := map[int]int{}
	for i := range msgs {
		pair := rng.Intn(nPairs)
		msgs[i] = Message{
			Pair: pair,
			Slot: slotPerPair[pair],
			Dim:  16 + rng.Intn(100),
			Beta: rng.Float64() * 10,
		}
		slotPerPair[pair]++
	}
	theta, gamma := uniformCost(nPairs)
	return NewProblem(msgs, groupSize, theta, gamma, lambda)
}

func TestGroupingSortsByBeta(t *testing.T) {
	msgs := []Message{
		{Pair: 0, Slot: 0, Dim: 8, Beta: 1},
		{Pair: 0, Slot: 1, Dim: 8, Beta: 9},
		{Pair: 0, Slot: 2, Dim: 8, Beta: 5},
		{Pair: 0, Slot: 3, Dim: 8, Beta: 3},
	}
	theta, gamma := uniformCost(1)
	p := NewProblem(msgs, 2, theta, gamma, 0.5)
	if len(p.Groups) != 2 {
		t.Fatalf("want 2 groups, got %d", len(p.Groups))
	}
	// First group must hold the two largest βs: 9 and 5.
	if math.Abs(p.Groups[0].Beta-14) > 1e-12 {
		t.Fatalf("first group β %v, want 14", p.Groups[0].Beta)
	}
	if math.Abs(p.Groups[1].Beta-4) > 1e-12 {
		t.Fatalf("second group β %v, want 4", p.Groups[1].Beta)
	}
}

func TestGroupsCoverAllMessages(t *testing.T) {
	rng := tensor.NewRNG(1)
	p := randomProblem(rng, 57, 4, 5, 0.5)
	covered := map[int]bool{}
	for _, g := range p.Groups {
		for _, mi := range g.Members {
			if covered[mi] {
				t.Fatalf("message %d in two groups", mi)
			}
			covered[mi] = true
		}
	}
	if len(covered) != 57 {
		t.Fatalf("covered %d of 57 messages", len(covered))
	}
}

func TestObjectiveMonotonicInWidths(t *testing.T) {
	rng := tensor.NewRNG(2)
	p := randomProblem(rng, 20, 3, 4, 0.5)
	all2 := quant.UniformWidths(len(p.Groups), quant.B2)
	all8 := quant.UniformWidths(len(p.Groups), quant.B8)
	v2, t2, _ := p.Objective(all2)
	v8, t8, _ := p.Objective(all8)
	if v8 >= v2 {
		t.Fatalf("8-bit variance %v should be below 2-bit %v", v8, v2)
	}
	if t8 <= t2 {
		t.Fatalf("8-bit time %v should exceed 2-bit %v", t8, t2)
	}
}

func TestLambdaExtremes(t *testing.T) {
	rng := tensor.NewRNG(3)
	// λ=1: pure variance → everything 8-bit. λ=0: pure time → 2-bit.
	msgs := make([]Message, 12)
	for i := range msgs {
		msgs[i] = Message{Pair: i % 2, Slot: i / 2, Dim: 64, Beta: 1 + rng.Float64()}
	}
	theta, gamma := uniformCost(2)
	pv := NewProblem(msgs, 3, theta, gamma, 1.0)
	for _, w := range pv.Solve() {
		if w != quant.B8 {
			t.Fatalf("λ=1 should assign 8-bit, got %d", w)
		}
	}
	pt := NewProblem(msgs, 3, theta, gamma, 0.0)
	for _, w := range pt.Solve() {
		if w != quant.B2 {
			t.Fatalf("λ=0 should assign 2-bit, got %d", w)
		}
	}
}

// checkLocallyOptimal fails unless widths score no worse than every
// uniform assignment and no single group's width change lowers the scalar.
func checkLocallyOptimal(t *testing.T, name string, p *Problem, widths []quant.BitWidth) {
	t.Helper()
	if len(widths) != len(p.Groups) {
		t.Fatalf("%s: %d widths for %d groups", name, len(widths), len(p.Groups))
	}
	_, _, s := p.Objective(widths)
	for _, b := range quant.Candidates {
		if _, _, u := p.Objective(quant.UniformWidths(len(p.Groups), b)); u < s-1e-12 {
			t.Fatalf("%s: scalar %v, all-%d-bit %v", name, s, b, u)
		}
	}
	moved := slices.Clone(widths)
	for i := range moved {
		for _, b := range quant.Candidates {
			moved[i] = b
			if _, _, m := p.Objective(moved); m < s-1e-12 {
				t.Fatalf("%s: group %d %d-bit → %d-bit lowers the scalar %v to %v", name, i, widths[i], b, s, m)
			}
		}
		moved[i] = widths[i]
	}
}

// heterogeneousLinks scales every pair's θ by 1–4× and γ by 0–1×, so the
// straggler pair is not simply the one with the most bytes.
func heterogeneousLinks(rng *tensor.RNG, p *Problem) {
	for i := range p.Theta {
		p.Theta[i] *= 1 + 3*rng.Float64()
		p.Gamma[i] *= rng.Float64()
	}
}

func TestSolveMatchesExhaustiveSmall(t *testing.T) {
	for seed := uint64(0); seed < 2000; seed++ {
		rng := tensor.NewRNG(seed)
		lambda := rng.Float64()
		if seed%4 == 0 {
			lambda = float64(seed / 4 % 2) // the extremes, where ties abound
		}
		p := randomProblem(rng, 1+rng.Intn(8), 1+rng.Intn(3), 1+rng.Intn(2), lambda)
		heterogeneousLinks(rng, p)
		if seed%5 == 0 {
			for i := range p.Groups {
				p.Groups[i].Beta = float64(rng.Intn(3)) // ties, and β = 0
			}
		}
		_, _, sGot := p.Objective(p.Solve())
		_, _, sBest := p.Objective(p.SolveExhaustive(8))
		if math.Abs(sGot-sBest) > 1e-12 {
			t.Fatalf("seed %d (%d groups, λ=%v): Solve %v, exhaustive %v", seed, len(p.Groups), lambda, sGot, sBest)
		}
	}
}

func TestSolveNeverWorseThanUniform(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		rng := tensor.NewRNG(seed)
		p := randomProblem(rng, 10+rng.Intn(60), 1+rng.Intn(6), 1+rng.Intn(8), 0.5)
		_, _, s := p.Objective(p.Solve())
		for _, b := range quant.Candidates {
			if _, _, u := p.Objective(quant.UniformWidths(len(p.Groups), b)); s > u+1e-12 {
				t.Fatalf("seed %d: scalar %v, all-%d-bit %v", seed, s, b, u)
			}
		}
	}
}

// TestSolveLocallyOptimalOnRandomShapes runs Solve on random problems of
// every shape the trainer produces: few and many pairs, groups of one and
// of many, λ across its range, pair ids that are sparse in Theta,
// heterogeneous links, and equal-β ties.
func TestSolveLocallyOptimalOnRandomShapes(t *testing.T) {
	rng := tensor.NewRNG(41)
	for trial := 0; trial < 300; trial++ {
		nPairs := 1 + rng.Intn(56)
		nMsgs := rng.Intn(900)
		groupSize := 1 + rng.Intn(40)
		lambda := []float64{0, 0.1, 0.5, 0.9, 1}[rng.Intn(5)]
		p := randomProblem(rng, nMsgs, nPairs, groupSize, lambda)
		heterogeneousLinks(rng, p)
		if trial%7 == 0 {
			for i := range p.Groups {
				p.Groups[i].Beta = float64(rng.Intn(3)) // ties, and β = 0
			}
		}
		name := fmt.Sprintf("trial %d (%d groups, %d pairs, λ=%v)", trial, len(p.Groups), nPairs, lambda)
		checkLocallyOptimal(t, name, p, p.Solve())
	}
}

// TestSolveHandBuiltGroups feeds Solve hand-built groups in NewProblem's
// layout whose pair ids skip and whose dims differ within a pair —
// NewProblem never produces that, but Groups is an exported field.
func TestSolveHandBuiltGroups(t *testing.T) {
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
		slices.SortStableFunc(p.Groups, func(a, b Group) int { return a.Pair - b.Pair })
		checkLocallyOptimal(t, fmt.Sprintf("trial %d", trial), p, p.Solve())
	}
}

// TestSolveSplitPairPanics: a hand-built problem whose pair 2 has its groups
// split apart by pair 5's breaks the layout Solve reads, and Solve says
// which pair.
func TestSolveSplitPairPanics(t *testing.T) {
	theta, gamma := uniformCost(6)
	p := &Problem{Theta: theta, Gamma: gamma, Lambda: 0.5, Groups: []Group{
		{Pair: 2, Dim: 8, Beta: 1, Members: []int{0}},
		{Pair: 5, Dim: 8, Beta: 1, Members: []int{1}},
		{Pair: 2, Dim: 8, Beta: 1, Members: []int{2}},
	}}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "pair 2") {
			t.Fatalf("panic %q does not name pair 2", msg)
		}
	}()
	p.Solve()
}

func TestHighBetaGetsMoreBits(t *testing.T) {
	// Two messages on one pair: one huge β, one tiny. With a balanced λ the
	// solver must protect the high-variance message with more bits.
	msgs := []Message{
		{Pair: 0, Slot: 0, Dim: 256, Beta: 1e6},
		{Pair: 0, Slot: 1, Dim: 256, Beta: 1e-6},
	}
	theta, gamma := uniformCost(1)
	p := NewProblem(msgs, 1, theta, gamma, 0.5)
	widths := p.Solve()
	// Groups are sorted by β, so group 0 is the big one.
	if widths[0] <= widths[1] && widths[0] != quant.B8 {
		t.Fatalf("high-β message got %d bits, low-β got %d", widths[0], widths[1])
	}
}

// stragglerProblem: pair 0 carries 50× the data of pair 1, in groups of 10.
func stragglerProblem(lambda float64) *Problem {
	var msgs []Message
	for i := 0; i < 50; i++ {
		msgs = append(msgs, Message{Pair: 0, Slot: i, Dim: 256, Beta: 1})
	}
	msgs = append(msgs, Message{Pair: 1, Slot: 0, Dim: 256, Beta: 1})
	theta, gamma := uniformCost(2)
	return NewProblem(msgs, 10, theta, gamma, lambda)
}

func TestStragglerDrivenDowngrade(t *testing.T) {
	// The minimax time objective is dominated by pair 0, so its widths are
	// pushed down while pair 1 can stay high.
	p := stragglerProblem(0.5)
	widths := p.Solve()
	var heavy, light float64
	var nh, nl int
	for i, g := range p.Groups {
		if g.Pair == 0 {
			heavy += float64(widths[i])
			nh++
		} else {
			light += float64(widths[i])
			nl++
		}
	}
	if heavy/float64(nh) > light/float64(nl) {
		t.Fatalf("straggler pair got avg %.1f bits vs light pair %.1f", heavy/float64(nh), light/float64(nl))
	}
}

// TestSolveTieRule: at λ = 0 only the straggler time counts, so every
// assignment that keeps pair 0 at 2 bits ties with all-2-bit. Solve breaks
// the tie toward the least variance at that time: the light pair widens,
// since its bytes cost no straggler time.
func TestSolveTieRule(t *testing.T) {
	p := stragglerProblem(0)
	widths := p.Solve()
	for i, g := range p.Groups {
		if g.Pair == 0 && widths[i] != quant.B2 {
			t.Fatalf("straggler group %d got %d bits", i, widths[i])
		}
	}
	v, _, s := p.Objective(widths)
	v2, _, s2 := p.Objective(quant.UniformWidths(len(p.Groups), quant.B2))
	if s != s2 {
		t.Fatalf("scalar %v, all-2-bit %v", s, s2)
	}
	if v >= v2 {
		t.Fatalf("variance %v not below all-2-bit %v", v, v2)
	}

	// Of equal-variance assignments the fewest bytes: a β = 0 group on the
	// light pair gains nothing from bits, so it stays at 2 even though
	// widening it would cost no straggler time either.
	p.Groups = append(p.Groups, Group{Pair: 1, Dim: 256, Members: []int{0}})
	if w := p.Solve()[len(p.Groups)-1]; w != quant.B2 {
		t.Fatalf("β = 0 group got %d bits", w)
	}
}

func TestEmptyProblem(t *testing.T) {
	theta, gamma := uniformCost(1)
	p := NewProblem(nil, 5, theta, gamma, 0.5)
	if ws := p.Solve(); len(ws) != 0 {
		t.Fatal("empty problem should yield no widths")
	}
	v, mt, s := p.Objective(nil)
	if v != 0 || mt != 0 || s != 0 {
		t.Fatalf("empty objective: %v %v %v", v, mt, s)
	}
}

func TestSolveExhaustiveCapPanics(t *testing.T) {
	rng := tensor.NewRNG(9)
	p := randomProblem(rng, 30, 2, 1, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected cap panic")
		}
	}()
	p.SolveExhaustive(5)
}

// redditMessages is the halo-reddit benchmark workload's layer-0 problem:
// 20 400 messages of dim 602 over 56 pairs.
func redditMessages() (msgs []Message, theta, gamma []float64) {
	rng := tensor.NewRNG(1)
	const pairs = 56
	msgs = make([]Message, 20400)
	slots := make([]int, pairs)
	for i := range msgs {
		pair := rng.Intn(pairs)
		msgs[i] = Message{Pair: pair, Slot: slots[pair], Dim: 602, Beta: rng.Float64() * 10}
		slots[pair]++
	}
	theta, gamma = uniformCost(pairs)
	return msgs, theta, gamma
}

// BenchmarkNewProblem times building the halo-reddit layer-0 problem: the
// grouping the master repeats for every problem of every assignment round.
func BenchmarkNewProblem(b *testing.B) {
	msgs, theta, gamma := redditMessages()
	for _, groupSize := range []int{100, 1} {
		b.Run(fmt.Sprintf("group=%d", groupSize), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				NewProblem(msgs, groupSize, theta, gamma, 0.5)
			}
		})
	}
}

// BenchmarkSolve times one solve of the halo-reddit layer-0 problem at the
// default group size and at one message per group, the slowest size a job
// may ask for.
func BenchmarkSolve(b *testing.B) {
	msgs, theta, gamma := redditMessages()
	for _, groupSize := range []int{100, 1} {
		b.Run(fmt.Sprintf("group=%d", groupSize), func(b *testing.B) {
			p := NewProblem(msgs, groupSize, theta, gamma, 0.5)
			b.ReportAllocs()
			for b.Loop() {
				p.Solve()
			}
		})
	}
}

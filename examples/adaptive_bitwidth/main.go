// Drives the bit-width assigner directly (no training): builds a message
// population with skewed variance contributions β across imbalanced device
// pairs, then sweeps λ from pure-throughput (0) to pure-fidelity (1) and
// shows how the solved assignment migrates between 2, 4 and 8 bits — the
// trade-off of the paper's Eqn. 12. It exits non-zero unless the sweep
// trades as Eqn. 12 says it must: max time never falls and variance never
// rises as λ grows, λ = 1 is all 8-bit, and at λ = 0.5 the straggler pair
// gets fewer bits on average than the others. The trained comparisons are
// in `go run ./cmd/paper -table 4,6` (systems; uniform vs adaptive widths).
//
//	go run ./examples/adaptive_bitwidth
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/bitassign"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func main() {
	const devices = 4
	rng := tensor.NewRNG(7)

	// Synthesize a communication round: pair (0→1) is a straggler
	// carrying 4× the messages; β values are heavy-tailed like real
	// embedding ranges.
	var msgs []bitassign.Message
	slot := map[int]int{}
	addMsgs := func(src, dst, count, dim int) {
		pair := src*devices + dst
		for i := 0; i < count; i++ {
			beta := rng.Float64()
			beta = beta * beta * beta * 10 // heavy tail
			msgs = append(msgs, bitassign.Message{
				Pair: pair, Slot: slot[pair], Dim: dim, Beta: beta,
			})
			slot[pair]++
		}
	}
	for src := 0; src < devices; src++ {
		for dst := 0; dst < devices; dst++ {
			if src == dst {
				continue
			}
			count := 200
			if src == 0 && dst == 1 {
				count = 800 // the straggler pair of Fig. 2
			}
			addMsgs(src, dst, count, 256)
		}
	}
	theta := make([]float64, devices*devices)
	gamma := make([]float64, devices*devices)
	for i := range theta {
		theta[i] = 8e-11 // 100 Gbps
		gamma[i] = 1e-3
	}

	fmt.Printf("%d messages over %d device pairs (pair 0→1 is 4x oversized)\n\n", len(msgs), devices*(devices-1))
	fmt.Printf("%-8s %8s %8s %8s %14s %12s\n", "lambda", "#2-bit", "#4-bit", "#8-bit", "variance", "maxTime(ms)")
	lastVariance, lastTime := math.Inf(1), math.Inf(-1)
	for _, lambda := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		prob := bitassign.NewProblem(msgs, 50, theta, gamma, lambda)
		widths := prob.Solve()
		variance, maxTime, _ := prob.Objective(widths)
		counts := map[quant.BitWidth]int{}
		for _, w := range widths {
			counts[w]++
		}
		fmt.Printf("%-8.2f %8d %8d %8d %14.3f %12.3f\n",
			lambda, counts[quant.B2], counts[quant.B4], counts[quant.B8], variance, 1000*maxTime)
		if variance > lastVariance || maxTime < lastTime {
			log.Fatalf("λ=%.2f: variance %v, max time %v after %v, %v at the smaller λ", lambda, variance, maxTime, lastVariance, lastTime)
		}
		if lambda == 1 && counts[quant.B8] != len(widths) {
			log.Fatalf("λ=1: %d of %d groups at 8 bits", counts[quant.B8], len(widths))
		}
		lastVariance, lastTime = variance, maxTime
	}

	// Show the straggler effect: at λ=0.5, compare the average width of
	// the oversized pair with the others.
	prob := bitassign.NewProblem(msgs, 50, theta, gamma, 0.5)
	widths := prob.Solve()
	sum := map[bool][2]float64{}
	for i, g := range prob.Groups {
		heavy := g.Pair == 0*devices+1
		s := sum[heavy]
		s[0] += float64(widths[i]) * float64(len(g.Members))
		s[1] += float64(len(g.Members))
		sum[heavy] = s
	}
	heavy, light := sum[true][0]/sum[true][1], sum[false][0]/sum[false][1]
	fmt.Printf("\nλ=0.5 average assigned width: straggler pair %.2f bits, other pairs %.2f bits\n", heavy, light)
	if heavy >= light {
		log.Fatalf("λ=0.5: the straggler pair's %.2f bits are not below the other pairs' %.2f", heavy, light)
	}
	fmt.Println("(the minimax time objective pushes the straggler pair toward lower precision)")
}

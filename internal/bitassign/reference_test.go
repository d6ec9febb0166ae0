package bitassign

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// refNewProblem is NewProblem as it stood before the flat bucketing: an
// index list per pair in a map, each sorted through the message slice. It
// is the oracle TestNewProblemMatchesReference holds the grouping to. Do not
// optimize it.
func refNewProblem(msgs []Message, groupSize int, theta, gamma []float64, lambda float64) *Problem {
	if groupSize <= 0 {
		groupSize = 1
	}
	p := &Problem{Messages: msgs, Theta: theta, Gamma: gamma, Lambda: lambda}
	byPair := map[int][]int{}
	for i, m := range msgs {
		byPair[m.Pair] = append(byPair[m.Pair], i)
	}
	for _, pair := range slices.Sorted(maps.Keys(byPair)) {
		idx := byPair[pair]
		slices.SortFunc(idx, func(a, b int) int {
			return cmp.Or(cmp.Compare(msgs[b].Beta, msgs[a].Beta), msgs[a].Slot-msgs[b].Slot)
		})
		for lo := 0; lo < len(idx); lo += groupSize {
			g := Group{Pair: pair, Dim: msgs[idx[lo]].Dim}
			for _, mi := range idx[lo:min(lo+groupSize, len(idx))] {
				g.Beta += msgs[mi].Beta
				g.Members = append(g.Members, mi)
			}
			p.Groups = append(p.Groups, g)
		}
	}
	return p
}

// groupBits is groups with each β as its bits, so that reflect.DeepEqual
// holds a NaN β equal to itself.
func groupBits(groups []Group) []any {
	out := make([]any, len(groups))
	for i, g := range groups {
		out[i] = []any{g.Pair, g.Dim, math.Float64bits(g.Beta), g.Members}
	}
	return out
}

// TestNewProblemMatchesReference builds problems whose messages arrive with
// their pairs interleaved, whose β repeat (ties broken by slot) and include
// NaN, on pairs that skip ids, and wants NewProblem's groups deeply equal to
// the oracle's for group sizes 1, 7 and 100.
func TestNewProblemMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(61)
	betas := []float64{0, 1, 2.5, 2.5, 7, math.NaN(), math.Inf(1)}
	for trial := 0; trial < 40; trial++ {
		nPairs := 1 + rng.Intn(12)
		slots := make([]int, nPairs)
		msgs := make([]Message, rng.Intn(600))
		for i := range msgs {
			pair := rng.Intn(nPairs)
			if pair%4 == 3 {
				pair-- // ids 3, 7, 11 carry nothing
			}
			beta := betas[rng.Intn(len(betas))]
			if rng.Intn(3) == 0 {
				beta = rng.Float64() * 10
			}
			msgs[i] = Message{Pair: pair, Slot: slots[pair], Dim: 16 + pair, Beta: beta}
			slots[pair]++
		}
		theta, gamma := uniformCost(nPairs)
		for _, groupSize := range []int{1, 7, 100} {
			name := fmt.Sprintf("trial %d, %d messages, group size %d", trial, len(msgs), groupSize)
			got := NewProblem(msgs, groupSize, theta, gamma, 0.5)
			want := refNewProblem(msgs, groupSize, theta, gamma, 0.5)
			if !reflect.DeepEqual(groupBits(got.Groups), groupBits(want.Groups)) {
				t.Fatalf("%s: groups differ from the reference\n got  %+v\n want %+v", name, got.Groups, want.Groups)
			}
		}
	}
}

package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/timing"
)

// roundRuntime counts the assigner rounds of a run — rank 0's GatherBytes
// and ScatterBytes calls, which only runAssignment makes — and keeps every
// device's clock as it entered the last round's gather and left its
// scatter. Wrapped around the in-process backend through the
// transportFactory seam.
type roundRuntime struct {
	Runtime
	gathers, scatters int
	entry, exit       []timing.Seconds // per rank: the last round's
}

type roundTransport struct {
	Transport
	rt *roundRuntime
}

func (t roundTransport) GatherBytes(root int, payload []byte) [][]byte {
	if t.Rank() == 0 {
		t.rt.gathers++
	}
	t.rt.entry[t.Rank()] = t.Clock().Now()
	return t.Transport.GatherBytes(root, payload)
}

func (t roundTransport) ScatterBytes(root int, payloads [][]byte) []byte {
	if t.Rank() == 0 {
		t.rt.scatters++
	}
	out := t.Transport.ScatterBytes(root, payloads)
	t.rt.exit[t.Rank()] = t.Clock().Now()
	return out
}

func (rt *roundRuntime) Run(seed uint64, body func(Transport) error) error {
	return rt.Runtime.Run(seed, func(tr Transport) error {
		return body(roundTransport{Transport: tr, rt: rt})
	})
}

// roundTrain trains codec on three tiny block parts for epochs epochs at
// re-assignment period period, counting the assigner's rounds.
func roundTrain(t *testing.T, codec string, epochs, period int) (*metrics.RunResult, *roundRuntime) {
	t.Helper()
	inprocess, err := LookupTransport(TransportInprocess)
	if err != nil {
		t.Fatal(err)
	}
	cfg := confTrainConfig(codec)
	cfg.Epochs, cfg.ReassignPeriod = epochs, period
	var rt *roundRuntime
	cfg.transportFactory = func(spec TransportSpec) Runtime {
		rt = &roundRuntime{Runtime: inprocess(spec),
			entry: make([]timing.Seconds, spec.Parts), exit: make([]timing.Seconds, spec.Parts)}
		return rt
	}
	res, err := TrainDeployed(deployTiny(t, 3), cfg, nil)
	if err != nil {
		t.Fatalf("%s, %d epochs: %v", codec, epochs, err)
	}
	if rt.gathers != rt.scatters {
		t.Fatalf("%s, %d epochs: %d gathers, %d scatters", codec, epochs, rt.gathers, rt.scatters)
	}
	return res, rt
}

// TestRunIsPrefixOfLongerRun: for every codec, a run of E = 2P epochs is the
// first E epochs of a run of E+1 — bit-identical losses, and the same clock
// at every epoch before E−1. Epoch E−1 ends a period only in the longer run,
// since only there an epoch follows to ship at new widths: adaptive's
// shorter run stops where the longer run's round starts (the slowest
// device's arrival at the gather), and the longer run's epoch ends where
// that round's slowest scatter lands. Every other codec's clock is the same
// there too.
func TestRunIsPrefixOfLongerRun(t *testing.T) {
	const period, epochs = 2, 4
	for _, codec := range CodecNames() {
		short, _ := roundTrain(t, codec, epochs, period)
		long, rt := roundTrain(t, codec, epochs+1, period)
		for e := range epochs {
			s, l := short.Epochs[e], long.Epochs[e]
			if math.Float64bits(s.Loss) != math.Float64bits(l.Loss) {
				t.Errorf("%s epoch %d: loss %v after %d epochs, %v after %d", codec, e, s.Loss, epochs, l.Loss, epochs+1)
			}
			if e < epochs-1 && s.SimTime != l.SimTime {
				t.Errorf("%s epoch %d: sim time %v after %d epochs, %v after %d", codec, e, s.SimTime, epochs, l.SimTime, epochs+1)
			}
		}
		s, l := short.Epochs[epochs-1].SimTime, long.Epochs[epochs-1].SimTime
		switch {
		case codec != CodecAdaptive:
			if s != l {
				t.Errorf("%s epoch %d: sim time %v after %d epochs, %v after %d", codec, epochs-1, s, epochs, l, epochs+1)
			}
		case s != slices.Max(rt.entry) || l != slices.Max(rt.exit) || l <= s:
			t.Errorf("%s epoch %d: sim time %v after %d epochs and %v after %d, want the longer run's last round, %v to %v, between them",
				codec, epochs-1, s, epochs, l, epochs+1, slices.Max(rt.entry), slices.Max(rt.exit))
		}
	}
}

// TestAssignerRoundsOnlyForUsedWidths: adaptive solves after the bootstrap
// epoch and after every period that has a successor, never after the last
// epoch — a one-epoch run solves nothing and charges no assignment time.
func TestAssignerRoundsOnlyForUsedWidths(t *testing.T) {
	for _, c := range []struct{ epochs, rounds int }{{5, 1}, {6, 2}, {1, 0}} {
		res, rt := roundTrain(t, CodecAdaptive, c.epochs, 5)
		if rt.gathers != c.rounds {
			t.Errorf("%d epochs at period 5: %d assigner rounds, want %d", c.epochs, rt.gathers, c.rounds)
		}
		if c.rounds == 0 && res.AssignTime != 0 {
			t.Errorf("%d epochs at period 5: assign time %v without a round", c.epochs, res.AssignTime)
		}
	}
}

// sizeRankDev is the part of a Transport random's EpochEnd reads.
type sizeRankDev struct {
	Transport
	size, rank int
}

func (d sizeRankDev) Size() int { return d.size }
func (d sizeRankDev) Rank() int { return d.rank }

// TestRandomRedrawsOnPeriodEnds: random's periods are adaptive's — epoch e
// ships period e/P's draw, so the tables move on after epochs P−1, 2P−1, …
// and after no epoch that is the run's last.
func TestRandomRedrawsOnPeriodEnds(t *testing.T) {
	const parts, rank = 3, 1
	dep := deployTiny(t, parts)
	cfg := DefaultConfig()
	cfg.Hidden, cfg.Epochs, cfg.ReassignPeriod = 16, 7, 3
	env := &CodecEnv{Cfg: &cfg, Locals: dep.Locals, Rank: rank, InDim: dep.Dataset.Features.Cols}
	mc, err := newQuantCodec(CodecRandom)(env)
	if err != nil {
		t.Fatal(err)
	}
	c := mc.(*quantCodec)
	ex := &ExchangeEnv{Dev: sizeRankDev{size: parts, rank: rank}, Cfg: &cfg}
	for e := range cfg.Epochs {
		want := newAssignState(&cfg, env.Graph(), env.InDim)
		want.installRandomWidths(cfg.Seed, e/cfg.ReassignPeriod, parts, rank)
		if !reflect.DeepEqual(c.st.widths, want.widths) {
			t.Fatalf("epoch %d ships other widths than period %d's draw", e, e/cfg.ReassignPeriod)
		}
		if err := c.EpochEnd(ex, e); err != nil {
			t.Fatal(err)
		}
	}
}

package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
)

// This file is the executable form of the MessageCodec contract (see
// codec.go): every registered codec — and any out-of-tree one — must pass
// ConformCodec before training results moved through it can be trusted,
// mirroring what ConformTransport does for runtime backends. The checks:
//
//   - codec-roundtrip: an epoch-0 forward exchange must deliver every
//     halo row within the codec's ForwardErrorBound, exactly where that
//     bound is 0.
//   - codec-byte-accounting: the transport's byte ledger after that
//     exchange must match the codec's ForwardWireSizes — the numbers
//     All2AllRoundTime and the paper's wire-byte measurements are built
//     from.
//   - codec-reproducibility: fixed-seed runs must be bit-identical
//     run-to-run.

// codecConformConfig is the small fixed training scenario the training
// checks run: 4 epochs so re-assignment periods and SANCUS staleness
// bounds all trigger at least once.
func codecConformConfig() Config {
	cfg := DefaultConfig()
	cfg.Epochs = 4
	cfg.Hidden = 16
	cfg.EvalEvery = 0
	cfg.ReassignPeriod = 2
	cfg.SancusMaxStale = 2
	cfg.Seed = 7
	return cfg
}

// ConformCodec verifies a message codec (built by f, exactly as the
// trainer would build it) against the codec contract with parts devices
// on the "tiny" dataset. It returns nil when the codec conforms; each
// Violation pinpoints a contract clause it broke. parts >= 2 is required
// to exercise cross-device messages.
func ConformCodec(f CodecFactory, parts int) []Violation {
	if f == nil {
		return []Violation{{Check: "setup", Detail: "nil codec factory"}}
	}
	if parts < 2 {
		return []Violation{{Check: "setup", Detail: fmt.Sprintf("codec conformance needs parts >= 2, got %d", parts)}}
	}
	ds, err := synthetic.Load("tiny", synthetic.Scale(1))
	if err != nil {
		return []Violation{{Check: "setup", Detail: fmt.Sprintf("loading conformance dataset: %v", err)}}
	}
	dep := Deploy(ds, parts, GCN, partition.Block)
	cfg := codecConformConfig()
	if err := cfg.validate(); err != nil {
		return []Violation{{Check: "setup", Detail: err.Error()}}
	}
	col := &vioCollector{}
	checkCodecExchange(f, dep, cfg, col)
	checkCodecReproducibility(f, dep, cfg, col)
	return col.v
}

// probeValue is the deterministic feature pattern of the exchange check:
// any device can reconstruct the row a peer sent from (rank, row, col).
func probeValue(rank, row, col int) float32 {
	return float32(rank+1)*0.5 + float32(row)*0.0625 - float32(col)*0.03125
}

// checkCodecExchange runs one epoch-0, layer-0 forward exchange on the
// in-process backend and checks decode-of-encode error bounds
// and the byte ledger against the codec's declarations.
func checkCodecExchange(f CodecFactory, dep *Deployment, cfg Config, col *vioCollector) {
	codecExchangeCheck(f, dep, cfg, 8, probeValue, col)
}

// codecExchangeCheck is checkCodecExchange with the message dimension and
// feature pattern pluggable (the round-trip property tests drive it over
// boundary bit-widths and degenerate tensors).
func codecExchangeCheck(f CodecFactory, dep *Deployment, cfg Config, dim int, fill func(rank, row, col int) float32, col *vioCollector) {
	parts := dep.Assignment.Parts
	locals := dep.Locals
	runtimeFor, err := LookupTransport(TransportInprocess)
	if err != nil {
		col.addf("setup", "no in-process transport: %v", err)
		return
	}
	// Build every device's codec before the runtime starts: factories take
	// no transport, and a factory failing on only some ranks must become a
	// violation — not strand the surviving devices inside a collective.
	// (A Forward that fails asymmetrically *before entering its own
	// collective* cannot be survived by any harness: the codec has
	// desynchronized its own collective schedule. Symmetric failures are
	// reported cleanly below.)
	codecs := make([]MessageCodec, parts)
	declared := make([][]int, parts)
	for r := 0; r < parts; r++ {
		codec, err := f(&CodecEnv{Cfg: &cfg, Locals: locals, Rank: r, InDim: dim})
		if err != nil {
			col.addf("codec-construction", "rank %d: building codec: %v", r, err)
			return
		}
		codecs[r] = codec
		declared[r] = codec.ForwardWireSizes(locals[r], dim)
	}
	rt := runtimeFor(TransportSpec{Parts: parts})
	var forwardFailed atomic.Bool
	err = rt.Run(cfg.Seed, func(dev Transport) error {
		r := dev.Rank()
		lg := locals[r]
		codec := codecs[r]
		h := tensor.New(lg.NumLocal, dim)
		for i := 0; i < lg.NumLocal; i++ {
			row := h.Row(i)
			for j := range row {
				row[j] = fill(r, i, j)
			}
		}
		xFull := tensor.New(lg.NumLocal+lg.NumHalo, dim)
		for i := 0; i < lg.NumLocal; i++ {
			copy(xFull.Row(i), h.Row(i))
		}
		// The env's scratch is pre-poisoned: a codec that reads pooled
		// memory without overwriting it fails the round-trip bound loudly.
		env := dirtyEnv(&ExchangeEnv{Dev: dev, Graph: lg, Cfg: &cfg, Round: roundingRNG(cfg.Seed, r), costs: make([][2]StageCosts, cfg.Layers)})
		if err := codec.Forward(env, 0, 0, h, xFull); err != nil {
			forwardFailed.Store(true)
			col.addf("codec-roundtrip", "rank %d epoch-0 forward failed: %v", r, err)
			return nil
		}
		for p := 0; p < parts; p++ {
			if p == r {
				continue
			}
			for j, slot := range lg.RecvFrom[p] {
				srcRow := int(locals[p].SendTo[r][j])
				want := make([]float32, dim)
				for c := range want {
					want[c] = fill(p, srcRow, c)
				}
				mn, mx := tensor.MinMax(want)
				lim := codec.ForwardErrorBound(mn, mx, dim) + 1e-6
				got := xFull.Row(lg.NumLocal + int(slot))
				for c := range want {
					if diff := math.Abs(float64(got[c] - want[c])); diff > lim {
						col.addf("codec-roundtrip",
							"rank %d decoded halo slot %d col %d as %v, want %v within ±%g (sent by rank %d row %d)",
							r, slot, c, got[c], want[c], lim, p, srcRow)
						break
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		col.addf("codec-runtime-error", "%v", err)
		return
	}
	if forwardFailed.Load() {
		// The ledger reflects an aborted exchange; comparing it against the
		// declared sizes would bury the real failure in spurious
		// byte-accounting violations.
		return
	}
	moved := rt.BytesMoved()
	for s := 0; s < parts; s++ {
		if len(declared[s]) != parts {
			col.addf("codec-byte-accounting", "rank %d declared %d destination sizes, want %d", s, len(declared[s]), parts)
			continue
		}
		for d := 0; d < parts; d++ {
			if moved[s][d] != int64(declared[s][d]) {
				col.addf("codec-byte-accounting", "pair (%d,%d) moved %d bytes, codec declared %d", s, d, moved[s][d], declared[s][d])
			}
		}
	}
}

// checkCodecReproducibility requires fixed-seed bit-reproducibility.
func checkCodecReproducibility(f CodecFactory, dep *Deployment, cfg Config, col *vioCollector) {
	cfg.codecFactory = f
	var runs [2]*metrics.RunResult
	for i := range runs {
		res, err := TrainDeployed(dep, cfg, nil)
		if err != nil {
			col.addf("codec-reproducibility", "training failed: %v", err)
			return
		}
		runs[i] = res
	}
	if desc := runDivergence(runs[0], runs[1], true); desc != "" {
		col.addf("codec-reproducibility", "two identical fixed-seed runs diverged (%s)", desc)
	}
}

// runDivergence describes the first bitwise difference between two runs,
// or returns "" when they match. withTime additionally compares the
// simulated clocks.
func runDivergence(a, b *metrics.RunResult, withTime bool) string {
	if len(a.Epochs) != len(b.Epochs) {
		return fmt.Sprintf("%d epoch records vs %d", len(a.Epochs), len(b.Epochs))
	}
	for i := range a.Epochs {
		if a.Epochs[i].Loss != b.Epochs[i].Loss {
			return fmt.Sprintf("epoch %d loss %v vs %v", i, a.Epochs[i].Loss, b.Epochs[i].Loss)
		}
		va, vb := a.Epochs[i].ValAcc, b.Epochs[i].ValAcc
		if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
			return fmt.Sprintf("epoch %d val %v vs %v", i, va, vb)
		}
		if withTime && a.Epochs[i].SimTime != b.Epochs[i].SimTime {
			return fmt.Sprintf("epoch %d sim time %v vs %v", i, a.Epochs[i].SimTime, b.Epochs[i].SimTime)
		}
	}
	if a.FinalTest != b.FinalTest {
		return fmt.Sprintf("final test %v vs %v", a.FinalTest, b.FinalTest)
	}
	for s := range a.BytesMoved {
		for d := range a.BytesMoved[s] {
			if a.BytesMoved[s][d] != b.BytesMoved[s][d] {
				return fmt.Sprintf("pair (%d,%d) moved %d bytes vs %d", s, d, a.BytesMoved[s][d], b.BytesMoved[s][d])
			}
		}
	}
	if withTime && a.WallClock != b.WallClock {
		return fmt.Sprintf("wall clock %v vs %v", a.WallClock, b.WallClock)
	}
	return ""
}

// dirtyEnv primes e with poisoned scratch and returns it: a payload pool
// whose freelists hold byte buffers full of 0xA5, and row-range scratch full
// of NaN. The conformance exchange check and the evaluation and assigner
// tests run codecs against it, so a codec that reads pooled memory it did
// not overwrite produces loudly wrong values instead of silently correct
// zeroes.
func dirtyEnv(e *ExchangeEnv) *ExchangeEnv {
	e.Pool = NewArena(1)
	for n := 1 << arenaMinBits; n <= 1<<16; n <<= 2 {
		b := make([]byte, n)
		for i := range b {
			b[i] = 0xA5
		}
		e.Pool.PutBuf(b)
	}
	nan := float32(math.NaN())
	e.rowRanges = make([]quant.RowRange, 1<<10)
	for i := range e.rowRanges {
		e.rowRanges[i] = quant.RowRange{Min: nan, Max: nan}
	}
	return e
}

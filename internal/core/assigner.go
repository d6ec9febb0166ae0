package core

import (
	"fmt"
	"sync"

	"repro/internal/bitassign"
	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// The Adaptive Bit-width Assigner (paper §3.3, Fig. 6). Each device traces
// the value ranges of the messages it sends (step 1); the traces are
// gathered at the master (rank 0, step 2), which builds one bi-objective
// problem per (layer, direction) and solves them in parallel (step 3); the
// resulting width tables are scattered back and installed on both the
// sending and receiving sides of every pair (step 4).

// assignState is the per-device assigner bookkeeping.
type assignState struct {
	lg     *partition.LocalGraph
	layers int
	dims   []int // dims[l] = dimension of layer-l messages (layer input)

	// alphaSq[slot] = Σ_{v ∈ N_T(k)} α²_{k,v}: the receiver-side factor of
	// β (Theorem 3) for each of this device's halo slots. Static.
	alphaSq []float64

	// Traced (max−min)² per sent message, refreshed on tracing epochs:
	// fwdRange2[l][dst][j] for forward sends (wire order SendTo[dst]);
	// bwdRange2[l][src][j] for backward sends (wire order RecvFrom[src]).
	fwdRange2 [][][]float64
	bwdRange2 [][][]float64

	// Current width tables, per layer.
	fwdW []*widthTable
	bwdW []*widthTable
}

func newAssignState(cfg *Config, lg *partition.LocalGraph, inDim int) *assignState {
	st := &assignState{lg: lg, layers: cfg.Layers, dims: messageDims(cfg, inDim)}
	st.alphaSq = make([]float64, lg.NumHalo)
	for u := 0; u < lg.NumLocal; u++ {
		ws := lg.Adj.EdgeWeights(u)
		for k, v := range lg.Adj.Neighbors(u) {
			if int(v) >= lg.NumLocal {
				w := float32(1)
				if ws != nil {
					w = ws[k]
				}
				st.alphaSq[int(v)-lg.NumLocal] += float64(w) * float64(w)
			}
		}
	}
	st.fwdRange2 = make([][][]float64, cfg.Layers)
	st.bwdRange2 = make([][][]float64, cfg.Layers)
	st.fwdW = make([]*widthTable, cfg.Layers)
	st.bwdW = make([]*widthTable, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		st.fwdRange2[l] = emptyRanges(lg, true)
		st.bwdRange2[l] = emptyRanges(lg, false)
		st.fwdW[l] = newWidthTable(lg, true, quant.B8)
		st.bwdW[l] = newWidthTable(lg, false, quant.B8)
	}
	return st
}

func emptyRanges(lg *partition.LocalGraph, fwd bool) [][]float64 {
	out := make([][]float64, lg.Parts)
	for d := range out {
		n := len(lg.SendTo[d])
		if !fwd {
			n = len(lg.RecvFrom[d])
		}
		out[d] = make([]float64, n)
	}
	return out
}

// traceForward records (max−min)² of each row this device sends at layer l,
// from the exchange's own scan of those rows (env.sendRanges).
func (st *assignState) traceForward(l int, ranges []quant.RowRange) {
	for q := range st.fwdRange2[l] {
		for j, r := range st.lg.SendTo[q] {
			d := float64(ranges[r].Max - ranges[r].Min)
			st.fwdRange2[l][q][j] = d * d
		}
	}
}

// traceBackward records (max−min)² of each halo-gradient row at layer l,
// from env.haloRanges.
func (st *assignState) traceBackward(l int, ranges []quant.RowRange) {
	for p := range st.bwdRange2[l] {
		for j, s := range st.lg.RecvFrom[p] {
			rg := ranges[int(s)+st.lg.NumLocal]
			d := float64(rg.Max - rg.Min)
			st.bwdRange2[l][p][j] = d * d
		}
	}
}

// Wire messages (binary format in assigner_wire.go).

type traceMsg struct {
	Rank int
	// RecvAlpha[src][j] = Σα² for halo slots RecvFrom[src][j].
	RecvAlpha [][]float64
	// Fwd[l][dst][j], Bwd[l][src][j]: traced range².
	Fwd [][][]float64
	Bwd [][][]float64
}

type widthMsg struct {
	// FwdSend[l][dst][j], FwdRecv[l][src][j], BwdSend[l][dst][j],
	// BwdRecv[l][src][j].
	FwdSend, FwdRecv, BwdSend, BwdRecv [][][]quant.BitWidth
}

// runAssignment executes the 4-step protocol. Every device must call it;
// widths tables are updated in place. Master compute time is charged to
// timing.Assign; gather/scatter communication is charged by the
// collectives; non-master devices block (Idle) until results arrive —
// exactly the paper's "blocks the current training worker".
func runAssignment(dev Transport, cfg *Config, st *assignState) error {
	n := dev.Size()
	report := traceMsg{Rank: dev.Rank(), Fwd: st.fwdRange2, Bwd: st.bwdRange2}
	report.RecvAlpha = make([][]float64, n)
	for p := 0; p < n; p++ {
		as := make([]float64, len(st.lg.RecvFrom[p]))
		for j, slot := range st.lg.RecvFrom[p] {
			as[j] = st.alphaSq[slot]
		}
		report.RecvAlpha[p] = as
	}
	gathered := dev.GatherBytes(0, encodeTrace(&report))

	var scattered [][]byte
	if dev.Rank() == 0 {
		reports := make([]*traceMsg, n)
		for r, b := range gathered {
			var m traceMsg
			if err := decodeTrace(b, &m); err != nil {
				return fmt.Errorf("core: decoding trace from rank %d: %w", r, err)
			}
			reports[r] = &m
		}
		msgs, solveCost := solveAllProblems(dev, cfg, st, reports)
		dev.Clock().Advance(timing.Assign, solveCost)
		scattered = make([][]byte, n)
		for r := range msgs {
			scattered[r] = encodeWidths(msgs[r])
		}
	}
	mine := dev.ScatterBytes(0, scattered)
	var wm widthMsg
	if err := decodeWidths(mine, &wm); err != nil {
		return fmt.Errorf("core: rank %d decoding widths: %w", dev.Rank(), err)
	}
	for l := 0; l < st.layers; l++ {
		st.fwdW[l] = &widthTable{send: wm.FwdSend[l], recv: wm.FwdRecv[l]}
		st.bwdW[l] = &widthTable{send: wm.BwdSend[l], recv: wm.BwdRecv[l]}
	}
	return nil
}

// solveAllProblems builds and solves one Problem per (layer, direction) on
// the master, in parallel goroutines (the paper's thread pool, step 3),
// and packages per-device width tables. Returns the simulated solve cost.
func solveAllProblems(dev Transport, cfg *Config, st *assignState, reports []*traceMsg) ([]*widthMsg, timing.Seconds) {
	n := len(reports)
	model := dev.Model()
	theta := make([]float64, n*n)
	gamma := make([]float64, n*n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			theta[s*n+d] = model.Theta(s, d)
			gamma[s*n+d] = model.Gamma()
		}
	}

	type solved struct {
		layer  int
		fwd    bool
		widths map[int][]quant.BitWidth // pair → per-slot widths
		cost   timing.Seconds
	}
	var wg sync.WaitGroup
	results := make(chan solved, 2*st.layers)
	launch := func(layer int, fwd bool) {
		defer wg.Done()
		msgs := problemMessages(reports, layer, fwd, st.dims[layer])
		prob := bitassign.NewProblem(msgs, cfg.GroupSize, theta, gamma, cfg.Lambda)
		widths := prob.Solve()
		// Simulated solver cost: greedy move loop is O(groups² · pairs)
		// objective evaluations in the worst case; charge a per-evaluation
		// constant calibrated to the paper's ~5% wall-clock overhead.
		cost := timing.Seconds(1e-3 + 5e-8*float64(len(prob.Groups)*len(prob.Groups)))
		results <- solved{layer: layer, fwd: fwd, widths: prob.ExpandToSlots(widths), cost: cost}
	}
	for l := 0; l < st.layers; l++ {
		wg.Add(1)
		go launch(l, true)
		if l > 0 { // layer 0 has no backward exchange
			wg.Add(1)
			go launch(l, false)
		}
	}
	wg.Wait()
	close(results)

	out := make([]*widthMsg, n)
	for r := 0; r < n; r++ {
		wm := &widthMsg{
			FwdSend: emptyWidthGrid(st.layers, n), FwdRecv: emptyWidthGrid(st.layers, n),
			BwdSend: emptyWidthGrid(st.layers, n), BwdRecv: emptyWidthGrid(st.layers, n),
		}
		// Default sizes/widths for slots the solver did not cover
		// (all-constant rows trace to β=0 but still occupy slots — they
		// are covered; this is belt-and-braces for empty pairs).
		out[r] = wm
	}
	var totalCost timing.Seconds
	for s := range results {
		totalCost += s.cost
		for pair, ws := range s.widths {
			src, dst := pair/n, pair%n
			if s.fwd {
				out[src].FwdSend[s.layer][dst] = ws
				out[dst].FwdRecv[s.layer][src] = ws
			} else {
				out[src].BwdSend[s.layer][dst] = ws
				out[dst].BwdRecv[s.layer][src] = ws
			}
		}
	}
	// Fill any missing tables with sizes from the reports so width tables
	// always match wire sizes.
	for r := 0; r < n; r++ {
		for l := 0; l < st.layers; l++ {
			for d := 0; d < n; d++ {
				fixWidths(&out[r].FwdSend[l][d], len(reports[r].Fwd[l][d]))
				fixWidths(&out[r].FwdRecv[l][d], len(reports[d].Fwd[l][r]))
				fixWidths(&out[r].BwdSend[l][d], len(reports[r].Bwd[l][d]))
				fixWidths(&out[r].BwdRecv[l][d], len(reports[d].Bwd[l][r]))
			}
		}
	}
	return out, totalCost
}

// problemMessages lists one bitassign.Message per traced row of one (layer,
// direction): pair src→dst, wire position j, β from the traced range²
// (Theorem 3). The list is sized from the reports' row counts up front: it
// runs to one entry per boundary row per peer, on every assignment epoch.
func problemMessages(reports []*traceMsg, layer int, fwd bool, dim int) []bitassign.Message {
	n := len(reports)
	ranges := func(src int) [][]float64 {
		if fwd {
			return reports[src].Fwd[layer]
		}
		return reports[src].Bwd[layer]
	}
	total := 0
	for src := 0; src < n; src++ {
		for dst, rs := range ranges(src) {
			if dst != src {
				total += len(rs)
			}
		}
	}
	msgs := make([]bitassign.Message, 0, total)
	for src := 0; src < n; src++ {
		rs := ranges(src)
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			for j, r2 := range rs[dst] {
				beta := float64(dim) * r2 / 6
				if fwd {
					// Receiver-side Σα² factor: dst's halo slots fed
					// by src, wire position j.
					beta *= reports[dst].RecvAlpha[src][j]
				}
				// Backward scatter-adds with unit coefficients (α was
				// applied on the sender inside the transposed
				// aggregation), so Σα² = 1 there.
				msgs = append(msgs, bitassign.Message{
					Pair: src*n + dst, Slot: j, Dim: dim, Beta: beta,
				})
			}
		}
	}
	return msgs
}

func emptyWidthGrid(layers, n int) [][][]quant.BitWidth {
	g := make([][][]quant.BitWidth, layers)
	for l := range g {
		g[l] = make([][]quant.BitWidth, n)
	}
	return g
}

func fixWidths(ws *[]quant.BitWidth, want int) {
	if len(*ws) == want {
		return
	}
	*ws = quant.UniformWidths(want, quant.B8)
}

// pairDeterministicWidths derives a width table both sides of a pair can
// compute independently — used by the uniform-random ablation
// (AdaQPRandom), where no master scatter happens. The stream is seeded by
// (seed, period index, layer, direction, src, dst) so sender and receiver
// agree exactly.
func pairDeterministicWidths(seed uint64, period, layer int, fwd bool, src, dst, n int) *tensor.RNG {
	h := seed
	mix := func(x uint64) {
		h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	mix(uint64(period + 1))
	mix(uint64(layer + 1))
	if fwd {
		mix(3)
	} else {
		mix(5)
	}
	mix(uint64(src + 1))
	mix(uint64(dst + 1))
	return tensor.NewRNG(h)
}

// installRandomWidths fills st's tables with the uniform-random sampling
// scheme of Table 6, consistently on both endpoints of every pair.
func (st *assignState) installRandomWidths(seed uint64, periodIdx, parts, rank int) {
	for l := 0; l < st.layers; l++ {
		for d := 0; d < parts; d++ {
			if d == rank {
				continue
			}
			st.fwdW[l].send[d] = quant.RandomWidths(len(st.lg.SendTo[d]),
				pairDeterministicWidths(seed, periodIdx, l, true, rank, d, parts))
			st.fwdW[l].recv[d] = quant.RandomWidths(len(st.lg.RecvFrom[d]),
				pairDeterministicWidths(seed, periodIdx, l, true, d, rank, parts))
			st.bwdW[l].send[d] = quant.RandomWidths(len(st.lg.RecvFrom[d]),
				pairDeterministicWidths(seed, periodIdx, l, false, rank, d, parts))
			st.bwdW[l].recv[d] = quant.RandomWidths(len(st.lg.SendTo[d]),
				pairDeterministicWidths(seed, periodIdx, l, false, d, rank, parts))
		}
	}
}

// installUniformWidths sets every message's width to b (AdaQPUniform).
func (st *assignState) installUniformWidths(b quant.BitWidth) {
	for l := 0; l < st.layers; l++ {
		st.fwdW[l] = newWidthTable(st.lg, true, b)
		st.bwdW[l] = newWidthTable(st.lg, false, b)
	}
}

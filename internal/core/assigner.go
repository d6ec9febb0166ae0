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

	// ranges[dir][l][peer][j] is the traced max−min of the j-th message
	// sent to peer at layer l (wire order dir.sent), refreshed on tracing
	// epochs. The master squares it; nil below dir.firstLayer().
	ranges [2][][][]float32

	// widths[dir][l] is the current width table; nil below dir.firstLayer().
	widths [2][]*widthTable
}

// bootstrapBits is the width of every message before the first assignment
// round has solved any: AdaQP's bootstrap epoch 0 ships at it, and a solved
// table missing a message falls back to it.
const bootstrapBits = quant.B8

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
	for _, dir := range directions {
		st.ranges[dir] = make([][][]float32, cfg.Layers)
		for l := dir.firstLayer(); l < cfg.Layers; l++ {
			st.ranges[dir][l] = make([][]float32, lg.Parts)
			for p, rows := range dir.sent(lg) {
				st.ranges[dir][l][p] = make([]float32, len(rows))
			}
		}
	}
	st.installUniformWidths(bootstrapBits)
	return st
}

// trace records max−min of each row this device sends in direction dir at
// layer l, from the exchange's own scan of those rows (env.ranges).
func (st *assignState) trace(env *ExchangeEnv, dir direction, l int, ranges []quant.RowRange) {
	for p, out := range st.ranges[dir][l] {
		for j, r := range env.wireRows(dir, p) {
			out[j] = ranges[r].Max - ranges[r].Min
		}
	}
}

// Wire messages (binary format in assigner_wire.go).

type traceMsg struct {
	Rank int
	// RecvAlpha[src][j] = Σα² for halo slots RecvFrom[src][j].
	RecvAlpha [][]float64
	// Range[dir][l][peer][j]: traced max−min, assignState's layout.
	Range [2][][][]float32
}

type widthMsg struct {
	// Send[dir][l][dst][j] and Recv[dir][l][src][j]: one device's width
	// tables, nil below dir.firstLayer().
	Send, Recv [2][][][]quant.BitWidth
}

// runAssignment executes the 4-step protocol. Every device must call it;
// widths tables are updated in place. Master compute time is charged to
// timing.Assign; gather/scatter communication is charged by the
// collectives; non-master devices block (Idle) until results arrive —
// exactly the paper's "blocks the current training worker". The codec
// calls it only after a tracing epoch, so every round's widths are shipped
// by a later epoch: none runs after the run's last.
func runAssignment(dev Transport, cfg *Config, st *assignState) error {
	n := dev.Size()
	report := st.report(dev.Rank())
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
	for _, dir := range directions {
		if len(wm.Send[dir]) != st.layers || len(wm.Recv[dir]) != st.layers {
			return fmt.Errorf("core: rank %d got width tables for %d/%d layers, want %d",
				dev.Rank(), len(wm.Send[dir]), len(wm.Recv[dir]), st.layers)
		}
		for l := dir.firstLayer(); l < st.layers; l++ {
			st.widths[dir][l] = &widthTable{send: wm.Send[dir][l], recv: wm.Recv[dir][l]}
		}
	}
	return nil
}

// report is the trace device rank sends the master: its traced ranges and
// the Σα² of every halo slot in wire order.
func (st *assignState) report(rank int) traceMsg {
	m := traceMsg{Rank: rank, Range: st.ranges, RecvAlpha: make([][]float64, st.lg.Parts)}
	for p, slots := range st.lg.RecvFrom {
		as := make([]float64, len(slots))
		for j, slot := range slots {
			as[j] = st.alphaSq[slot]
		}
		m.RecvAlpha[p] = as
	}
	return m
}

// solveAllProblems builds and solves one Problem per (layer, direction) on
// the master, in parallel goroutines (the paper's thread pool, step 3),
// and packages per-device width tables. Returns the simulated solve cost:
// the slowest problem's, since the problems run side by side.
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
		dir    direction
		widths map[int][]quant.BitWidth // pair → per-slot widths
		cost   timing.Seconds
	}
	var wg sync.WaitGroup
	results := make(chan solved, 2*st.layers)
	launch := func(layer int, dir direction) {
		defer wg.Done()
		msgs := problemMessages(reports, layer, dir, st.dims[layer])
		prob := bitassign.NewProblem(msgs, cfg.GroupSize, theta, gamma, cfg.Lambda)
		widths := prob.Solve()
		results <- solved{layer: layer, dir: dir, widths: prob.ExpandToSlots(widths), cost: solveCost(len(prob.Groups))}
	}
	for _, dir := range directions {
		for l := dir.firstLayer(); l < st.layers; l++ {
			wg.Add(1)
			go launch(l, dir)
		}
	}
	wg.Wait()
	close(results)

	out := make([]*widthMsg, n)
	for r := range out {
		out[r] = &widthMsg{}
		for _, dir := range directions {
			out[r].Send[dir], out[r].Recv[dir] = emptyWidthGrid(dir, st.layers, n), emptyWidthGrid(dir, st.layers, n)
		}
	}
	var slowest timing.Seconds
	for s := range results {
		slowest = max(slowest, s.cost)
		for pair, ws := range s.widths {
			src, dst := pair/n, pair%n
			out[src].Send[s.dir][s.layer][dst] = ws
			out[dst].Recv[s.dir][s.layer][src] = ws
		}
	}
	// Fill the tables the solver did not cover (pairs with no messages)
	// with sizes from the reports so width tables always match wire sizes.
	for r := 0; r < n; r++ {
		for _, dir := range directions {
			for l := dir.firstLayer(); l < st.layers; l++ {
				for d := 0; d < n; d++ {
					fixWidths(&out[r].Send[dir][l][d], len(reports[r].Range[dir][l][d]))
					fixWidths(&out[r].Recv[dir][l][d], len(reports[d].Range[dir][l][r]))
				}
			}
		}
	}
	return out, slowest
}

// solveCost is the simulated host time of solving one problem of the given
// group count. Its constants model the paper's solve (the scalarized MILP
// handed to a solver on the master), not the time this host's
// bitassign.Solve takes; they are a modelling choice, not a measurement.
func solveCost(groups int) timing.Seconds {
	return timing.Seconds(1e-3 + 5e-8*float64(groups*groups))
}

// problemMessages lists one bitassign.Message per traced row of one (layer,
// direction): pair src→dst, wire position j, β from the squared traced range
// (Theorem 3). The list is sized from the reports' row counts up front: it
// runs to one entry per boundary row per peer, on every assignment epoch.
func problemMessages(reports []*traceMsg, layer int, dir direction, dim int) []bitassign.Message {
	n := len(reports)
	total := 0
	for src, rep := range reports {
		for dst, rs := range rep.Range[dir][layer] {
			if dst != src {
				total += len(rs)
			}
		}
	}
	msgs := make([]bitassign.Message, 0, total)
	for src := 0; src < n; src++ {
		rs := reports[src].Range[dir][layer]
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			for j, r := range rs[dst] {
				d := float64(r)
				beta := float64(dim) * (d * d) / 6
				if dir == forward {
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

func emptyWidthGrid(dir direction, layers, n int) [][][]quant.BitWidth {
	g := make([][][]quant.BitWidth, layers)
	for l := dir.firstLayer(); l < layers; l++ {
		g[l] = make([][]quant.BitWidth, n)
	}
	return g
}

func fixWidths(ws *[]quant.BitWidth, want int) {
	if len(*ws) == want {
		return
	}
	*ws = quant.UniformWidths(want, bootstrapBits)
}

// pairDeterministicWidths derives a width table both sides of a pair can
// compute independently — used by the uniform-random ablation (the
// random codec), where no master scatter happens. The stream is seeded by
// (seed, period index, layer, direction, src, dst) so sender and receiver
// agree exactly.
func pairDeterministicWidths(seed uint64, period, layer int, dir direction, src, dst, n int) *tensor.RNG {
	h := seed
	mix := func(x uint64) {
		h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	mix(uint64(period + 1))
	mix(uint64(layer + 1))
	if dir == forward {
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
	for _, dir := range directions {
		for l := dir.firstLayer(); l < st.layers; l++ {
			wt := st.widths[dir][l]
			for d := 0; d < parts; d++ {
				if d == rank {
					continue
				}
				wt.send[d] = quant.RandomWidths(len(dir.sent(st.lg)[d]),
					pairDeterministicWidths(seed, periodIdx, l, dir, rank, d, parts))
				wt.recv[d] = quant.RandomWidths(len(dir.filled(st.lg)[d]),
					pairDeterministicWidths(seed, periodIdx, l, dir, d, rank, parts))
			}
		}
	}
}

// installUniformWidths sets every message's width to b (the uniform codec).
func (st *assignState) installUniformWidths(b quant.BitWidth) {
	for _, dir := range directions {
		st.widths[dir] = make([]*widthTable, st.layers)
		for l := dir.firstLayer(); l < st.layers; l++ {
			st.widths[dir][l] = newWidthTable(st.lg, dir, b)
		}
	}
}

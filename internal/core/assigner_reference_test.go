package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bitassign"
	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// The assignment round as it stood before the sideband shrank, frozen as the
// oracle the current one is checked against: every device ships float64
// (max−min)² for every layer of both directions, the master solves every
// problem and charges the sum of their costs, and scatters one byte per
// width, with B8 tables fabricated for layer 0 backward. None of it is used
// outside tests.

type refTraceMsg struct {
	Rank      int
	RecvAlpha [][]float64
	Range2    [2][][][]float64
}

func refAppendF64Slice(b []byte, xs []float64) []byte {
	b = appendU32(b, uint32(len(xs)))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func refAppendF64Cube(b []byte, c [][][]float64) []byte {
	b = appendU32(b, uint32(len(c)))
	for _, g := range c {
		b = appendU32(b, uint32(len(g)))
		for _, s := range g {
			b = refAppendF64Slice(b, s)
		}
	}
	return b
}

func refEncodeTrace(m *refTraceMsg) []byte {
	b := appendU32(nil, uint32(m.Rank))
	b = appendU32(b, uint32(len(m.RecvAlpha)))
	for _, s := range m.RecvAlpha {
		b = refAppendF64Slice(b, s)
	}
	for _, cube := range m.Range2 {
		b = refAppendF64Cube(b, cube)
	}
	return b
}

func (r *wireReader) refF64Slice(what string) []float64 {
	n := r.length(8, what)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out
}

func (r *wireReader) refF64Cube(what string) [][][]float64 {
	n := r.length(4, what)
	if r.err != nil {
		return nil
	}
	out := make([][][]float64, n)
	for i := range out {
		m := r.length(4, what)
		if r.err != nil {
			return nil
		}
		out[i] = make([][]float64, m)
		for j := range out[i] {
			out[i][j] = r.refF64Slice(what)
		}
	}
	return out
}

func refDecodeTrace(b []byte, m *refTraceMsg) error {
	r := &wireReader{b: b}
	if len(b) < 4 {
		r.fail("rank")
	} else {
		m.Rank = int(binary.LittleEndian.Uint32(b))
		r.off = 4
	}
	m.RecvAlpha = r.f64Grid("RecvAlpha")
	for _, dir := range directions {
		m.Range2[dir] = r.refF64Cube("Range2")
	}
	return r.err
}

func refEncodeWidths(m *widthMsg) []byte {
	var b []byte
	for _, dir := range directions {
		for _, c := range [][][][]quant.BitWidth{m.Send[dir], m.Recv[dir]} {
			b = appendU32(b, uint32(len(c)))
			for _, g := range c {
				b = appendU32(b, uint32(len(g)))
				for _, ws := range g {
					b = appendU32(b, uint32(len(ws)))
					for _, w := range ws {
						b = append(b, byte(w))
					}
				}
			}
		}
	}
	return b
}

func (r *wireReader) refWidthCube(what string) [][][]quant.BitWidth {
	n := r.length(4, what)
	if r.err != nil {
		return nil
	}
	out := make([][][]quant.BitWidth, n)
	for i := range out {
		m := r.length(4, what)
		if r.err != nil {
			return nil
		}
		out[i] = make([][]quant.BitWidth, m)
		for j := range out[i] {
			k := r.length(1, what)
			if r.err != nil || k == 0 {
				continue
			}
			ws := make([]quant.BitWidth, k)
			for x := range ws {
				ws[x] = quant.BitWidth(r.b[r.off])
				r.off++
			}
			out[i][j] = ws
		}
	}
	return out
}

func refDecodeWidths(b []byte, m *widthMsg) error {
	r := &wireReader{b: b}
	for _, dir := range directions {
		m.Send[dir] = r.refWidthCube("Send")
		m.Recv[dir] = r.refWidthCube("Recv")
	}
	return r.err
}

// refReport is the frozen trace: the sender squared its traced ranges
// (d := float64(max−min); d·d) and shipped zeros for layer 0 backward.
func refReport(st *assignState, rank int) refTraceMsg {
	n := st.lg.Parts
	report := refTraceMsg{Rank: rank, RecvAlpha: st.report(rank).RecvAlpha}
	for _, dir := range directions {
		report.Range2[dir] = make([][][]float64, st.layers)
		for l := range report.Range2[dir] {
			report.Range2[dir][l] = make([][]float64, n)
			for p, rows := range dir.sent(st.lg) {
				if l < dir.firstLayer() {
					report.Range2[dir][l][p] = make([]float64, len(rows))
					continue
				}
				r2 := make([]float64, len(st.ranges[dir][l][p]))
				for j, r := range st.ranges[dir][l][p] {
					d := float64(r)
					r2[j] = d * d
				}
				report.Range2[dir][l][p] = r2
			}
		}
	}
	return report
}

// refRunAssignment is the 4-step protocol of the frozen format. It returns
// the width tables it would install, every layer of both directions.
func refRunAssignment(dev Transport, cfg *Config, st *assignState) ([2][]*widthTable, error) {
	n := dev.Size()
	report := refReport(st, dev.Rank())
	gathered := dev.GatherBytes(0, refEncodeTrace(&report))

	var scattered [][]byte
	if dev.Rank() == 0 {
		reports := make([]*refTraceMsg, n)
		for r, b := range gathered {
			reports[r] = &refTraceMsg{}
			if err := refDecodeTrace(b, reports[r]); err != nil {
				return [2][]*widthTable{}, err
			}
		}
		msgs, cost := refSolveAllProblems(dev, cfg, st, reports)
		dev.Clock().Advance(timing.Assign, cost)
		scattered = make([][]byte, n)
		for r := range msgs {
			scattered[r] = refEncodeWidths(msgs[r])
		}
	}
	var wm widthMsg
	if err := refDecodeWidths(dev.ScatterBytes(0, scattered), &wm); err != nil {
		return [2][]*widthTable{}, err
	}
	var out [2][]*widthTable
	for _, dir := range directions {
		out[dir] = make([]*widthTable, st.layers)
		for l := range out[dir] {
			out[dir][l] = &widthTable{send: wm.Send[dir][l], recv: wm.Recv[dir][l]}
		}
	}
	return out, nil
}

// refSolveAllProblems solves every (layer, direction) problem and charges
// the sum of the per-problem costs.
func refSolveAllProblems(dev Transport, cfg *Config, st *assignState, reports []*refTraceMsg) ([]*widthMsg, timing.Seconds) {
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
		widths [][]quant.BitWidth
		groups int
	}
	var wg sync.WaitGroup
	results := make(chan solved, 2*st.layers)
	for l := 0; l < st.layers; l++ {
		for _, dir := range directions {
			if dir == backward && l == 0 {
				continue
			}
			wg.Add(1)
			go func(layer int, dir direction) {
				defer wg.Done()
				msgs := refProblemMessages(reports, layer, dir, st.dims[layer])
				prob := bitassign.NewProblem(msgs, cfg.GroupSize, theta, gamma, cfg.Lambda)
				results <- solved{layer, dir, refExpandToSlots(prob, prob.Solve()), len(prob.Groups)}
			}(l, dir)
		}
	}
	wg.Wait()
	close(results)

	out := make([]*widthMsg, n)
	for r := range out {
		out[r] = &widthMsg{}
		for _, dir := range directions {
			out[r].Send[dir], out[r].Recv[dir] = make([][][]quant.BitWidth, st.layers), make([][][]quant.BitWidth, st.layers)
			for l := 0; l < st.layers; l++ {
				out[r].Send[dir][l], out[r].Recv[dir][l] = make([][]quant.BitWidth, n), make([][]quant.BitWidth, n)
			}
		}
	}
	var total timing.Seconds
	for s := range results {
		total += timing.Seconds(1e-3 + 5e-8*float64(s.groups*s.groups))
		for pair, ws := range s.widths {
			out[pair/n].Send[s.dir][s.layer][pair%n] = ws
			out[pair%n].Recv[s.dir][s.layer][pair/n] = ws
		}
	}
	for r := 0; r < n; r++ {
		for _, dir := range directions {
			for l := 0; l < st.layers; l++ {
				for d := 0; d < n; d++ {
					fixWidths(&out[r].Send[dir][l][d], len(reports[r].Range2[dir][l][d]))
					fixWidths(&out[r].Recv[dir][l][d], len(reports[d].Range2[dir][l][r]))
				}
			}
		}
	}
	return out, total
}

// refExpandToSlots maps group widths back to per-message widths, returned
// as widthsByPair[pair][slot]: one entry per pair up to the greatest that
// carries a message, nil for the pairs that carry none, and 8 bits for a
// slot no message names.
func refExpandToSlots(p *bitassign.Problem, groupWidths []quant.BitWidth) [][]quant.BitWidth {
	var slots []int
	for _, m := range p.Messages {
		for len(slots) <= m.Pair {
			slots = append(slots, 0)
		}
		slots[m.Pair] = max(slots[m.Pair], m.Slot+1)
	}
	out := make([][]quant.BitWidth, len(slots))
	for pair, n := range slots {
		if n > 0 {
			out[pair] = quant.UniformWidths(n, quant.B8)
		}
	}
	for gi, g := range p.Groups {
		for _, mi := range g.Members {
			m := p.Messages[mi]
			out[m.Pair][m.Slot] = groupWidths[gi]
		}
	}
	return out
}

// emptyWidthGrid is one direction's per-layer, per-peer width cube with
// no tables in it, nil below dir.firstLayer().
func emptyWidthGrid(dir direction, layers, n int) [][][]quant.BitWidth {
	g := make([][][]quant.BitWidth, layers)
	for l := dir.firstLayer(); l < layers; l++ {
		g[l] = make([][]quant.BitWidth, n)
	}
	return g
}

// fixWidths replaces a table whose length is not the wire size with one of
// bootstrapBits widths.
func fixWidths(ws *[]quant.BitWidth, want int) {
	if len(*ws) == want {
		return
	}
	*ws = quant.UniformWidths(want, bootstrapBits)
}

func refProblemMessages(reports []*refTraceMsg, layer int, dir direction, dim int) []bitassign.Message {
	n := len(reports)
	var msgs []bitassign.Message
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			for j, r2 := range reports[src].Range2[dir][layer][dst] {
				beta := float64(dim) * r2 / 6
				if dir == forward {
					beta *= reports[dst].RecvAlpha[src][j]
				}
				msgs = append(msgs, bitassign.Message{Pair: src*n + dst, Slot: j, Dim: dim, Beta: beta})
			}
		}
	}
	return msgs
}

// referenceCodec is adaptive with the frozen assignment round.
type referenceCodec struct{ *quantCodec }

func (c referenceCodec) EpochEnd(env *ExchangeEnv, epoch int) error {
	if !c.tracing(env.Cfg, epoch) {
		return nil
	}
	widths, err := refRunAssignment(env.Dev, env.Cfg, c.st)
	c.st.widths = widths
	return err
}

// refDataset builds a registry dataset at 1/div of its size from seed.
func refDataset(t *testing.T, name string, div int, seed uint64) *synthetic.Dataset {
	t.Helper()
	s, err := synthetic.LookupSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	s.Nodes /= div
	s.Edges /= div
	return s.Build(seed)
}

var refDeployments = []struct {
	dataset  string
	parts    int
	strategy partition.Strategy
}{
	{"products-sim", 4, partition.LDG},
	{"reddit-sim", 8, partition.Hash},
}

// TestAssignmentMatchesReference: on products-sim's and reddit-sim's
// deployments, over three seeds of traced ranges, the master derives every
// problem's β with the same bits as the frozen round, and the assignment
// round installs exactly the width tables the frozen round does on every
// rank, for every (layer, direction) with an exchange.
func TestAssignmentMatchesReference(t *testing.T) {
	inprocess, err := LookupTransport(TransportInprocess)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range refDeployments {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", d.dataset, seed), func(t *testing.T) {
				ds := refDataset(t, d.dataset, 2, seed)
				dep := Deploy(ds, d.parts, GCN, d.strategy)
				cfg := DefaultConfig()
				cfg.Hidden = 16
				states := make([]*assignState, d.parts)
				for r, lg := range dep.Locals {
					states[r] = newAssignState(&cfg, lg, ds.Features.Cols)
					rng := tensor.NewRNG(seed<<8 | uint64(r))
					for _, dir := range directions {
						for _, g := range states[r].ranges[dir] {
							for _, rs := range g {
								for j := range rs {
									// Every eighth row constant: a zero range.
									if rng.Intn(8) > 0 {
										rs[j] = rng.Float32() * 4
									}
								}
							}
						}
					}
				}
				// Every β the master derives, through both wire formats.
				reports := make([]*traceMsg, d.parts)
				refReports := make([]*refTraceMsg, d.parts)
				for r, st := range states {
					m := st.report(r)
					reports[r], refReports[r] = &traceMsg{}, &refTraceMsg{}
					ref := refReport(st, r)
					if err := decodeTrace(encodeTrace(&m), reports[r]); err != nil {
						t.Fatal(err)
					}
					if err := refDecodeTrace(refEncodeTrace(&ref), refReports[r]); err != nil {
						t.Fatal(err)
					}
				}
				for _, dir := range directions {
					for l := dir.firstLayer(); l < cfg.Layers; l++ {
						dim := states[0].dims[l]
						got, ref := problemMessages(reports, l, dir, dim), refProblemMessages(refReports, l, dir, dim)
						if len(got) != len(ref) {
							t.Fatalf("direction %d layer %d: %d messages, reference %d", dir, l, len(got), len(ref))
						}
						for i := range got {
							if got[i].Pair != ref[i].Pair || got[i].Slot != ref[i].Slot || got[i].Dim != ref[i].Dim ||
								math.Float64bits(got[i].Beta) != math.Float64bits(ref[i].Beta) {
								t.Fatalf("direction %d layer %d message %d: %+v, reference %+v", dir, l, i, got[i], ref[i])
							}
						}
					}
				}

				want := make([][2][]*widthTable, d.parts)
				rt := inprocess(TransportSpec{Parts: d.parts})
				err := rt.Run(seed, func(dev Transport) error {
					st := states[dev.Rank()]
					ref, err := refRunAssignment(dev, &cfg, st)
					want[dev.Rank()] = ref
					if err != nil {
						return err
					}
					return runAssignment(dev, &cfg, st)
				})
				if err != nil {
					t.Fatal(err)
				}
				narrow := 0
				for r, st := range states {
					for _, dir := range directions {
						for l := dir.firstLayer(); l < cfg.Layers; l++ {
							got, ref := st.widths[dir][l], want[r][dir][l]
							for p := 0; p < d.parts; p++ {
								if !equalWidths(got.send[p], ref.send[p]) || !equalWidths(got.recv[p], ref.recv[p]) {
									t.Fatalf("rank %d direction %d layer %d peer %d: widths differ from the reference", r, dir, l, p)
								}
								for _, w := range got.send[p] {
									if w != quant.B8 {
										narrow++
									}
								}
							}
						}
					}
				}
				if narrow == 0 {
					t.Fatal("every width is B8: the comparison exercised no assignment")
				}
			})
		}
	}
}

// equalWidths treats nil and empty alike: the decoders return nil for an
// empty slice.
func equalWidths(a, b []quant.BitWidth) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAdaQPTrainingMatchesReference: AdaQP trained with the assignment round
// and with the frozen one has the same loss curve, FinalVal and FinalTest,
// bit for bit — only the simulated clock may differ.
func TestAdaQPTrainingMatchesReference(t *testing.T) {
	for _, d := range refDeployments {
		t.Run(d.dataset, func(t *testing.T) {
			dep := Deploy(refDataset(t, d.dataset, 16, 1), d.parts, GCN, d.strategy)
			cfg := DefaultConfig()
			cfg.Codec = CodecAdaptive
			cfg.Hidden = 16
			cfg.Epochs = 7
			cfg.EvalEvery = 3
			cfg.ReassignPeriod = 3
			got, err := TrainDeployed(dep, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			adaptive := newQuantCodec(CodecAdaptive)
			cfg.codecFactory = func(env *CodecEnv) (MessageCodec, error) {
				c, err := adaptive(env)
				return referenceCodec{c.(*quantCodec)}, err
			}
			want, err := TrainDeployed(dep, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range want.Epochs {
				if math.Float64bits(got.Epochs[i].Loss) != math.Float64bits(e.Loss) {
					t.Fatalf("epoch %d: loss %v, reference %v", i, got.Epochs[i].Loss, e.Loss)
				}
			}
			if math.Float64bits(got.FinalVal) != math.Float64bits(want.FinalVal) ||
				math.Float64bits(got.FinalTest) != math.Float64bits(want.FinalTest) {
				t.Fatalf("FinalVal/FinalTest %v/%v, reference %v/%v", got.FinalVal, got.FinalTest, want.FinalVal, want.FinalTest)
			}
			if got.AssignTime >= want.AssignTime {
				t.Errorf("assign time %v, reference %v: charging the slowest solve should cost less than the sum", got.AssignTime, want.AssignTime)
			}
		})
	}
}

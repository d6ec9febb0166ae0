package core

import (
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/quant"
	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/timing"
)

func deployTiny(t *testing.T, parts int) *Deployment {
	t.Helper()
	ds := synthetic.MustLoad("tiny", 1)
	return testDeploy(ds, parts, GCN)
}

func TestWidthTableShapes(t *testing.T) {
	dep := deployTiny(t, 3)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	// An assigner's tables and traces exist for exactly the (layer,
	// direction) pairs the trainer and Predict charge an exchange for: from
	// firstLayer on, so never layer 0 backward.
	st := newAssignState(&cfg, dep.Locals[0], dep.Dataset.Features.Cols)
	for _, dir := range directions {
		for l := 0; l < cfg.Layers; l++ {
			exists := l >= dir.firstLayer()
			if (st.widths[dir][l] != nil) != exists || (st.ranges[dir][l] != nil) != exists {
				t.Fatalf("direction %d layer %d: width table %v, trace %v, want both present = %v",
					dir, l, st.widths[dir][l] != nil, st.ranges[dir][l] != nil, exists)
			}
		}
	}
	if backward.firstLayer() != 1 || forward.firstLayer() != 0 {
		t.Fatal("layer 0 must exchange forward only")
	}
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

// TestAssignStateAlphaSq: the receiver-side Σα² table has one entry per
// halo slot in wire order, positive for every slot an edge references (GCN
// sym-norm weights are positive), zero for the rest, and equal to the sum
// of the slot's squared edge weights.
func TestAssignStateAlphaSq(t *testing.T) {
	dep := deployTiny(t, 2)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	lg := dep.Locals[0]
	st := newAssignState(&cfg, lg, dep.Dataset.Features.Cols)
	want := make([]float64, lg.NumHalo)
	referenced := make([]bool, lg.NumHalo)
	for u := 0; u < lg.NumLocal; u++ {
		ws := lg.Adj.EdgeWeights(u)
		for k, v := range lg.Adj.Neighbors(u) {
			if s := int(v) - lg.NumLocal; s >= 0 {
				w := 1.0
				if ws != nil {
					w = float64(ws[k])
				}
				referenced[s] = true
				want[s] += w * w
			}
		}
	}
	if len(st.recvAlpha) != lg.Parts {
		t.Fatalf("recvAlpha covers %d peers, want %d", len(st.recvAlpha), lg.Parts)
	}
	slots := 0
	for p, wire := range lg.RecvFrom {
		if len(st.recvAlpha[p]) != len(wire) {
			t.Fatalf("peer %d: %d Σα² entries for %d halo slots", p, len(st.recvAlpha[p]), len(wire))
		}
		for j, s := range wire {
			got := st.recvAlpha[p][j]
			if referenced[s] && got <= 0 || !referenced[s] && got != 0 || got != want[s] {
				t.Fatalf("peer %d wire position %d (halo slot %d, referenced %v): Σα² = %v, want %v",
					p, j, s, referenced[s], got, want[s])
			}
		}
		slots += len(wire)
	}
	if slots == 0 {
		t.Fatal("no halo slots: the check exercised nothing")
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
	st.trace(env, forward, 0, env.ranges(forward, 0, x))
	for q, rows := range lg.SendTo {
		for j, r := range rows {
			mn, mx := tensor.MinMax(x.Row(int(r)))
			if got := st.ranges[forward][0][q][j]; got != mx-mn {
				t.Fatalf("traced range %v, want %v", got, mx-mn)
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
	// The dirty env hands out NaN-poisoned ranges: every halo row's entry
	// must be overwritten by the scan.
	env := dirtyEnv(&ExchangeEnv{Graph: lg})
	st.trace(env, backward, 1, env.ranges(backward, 1, dxFull))
	for p, slots := range lg.RecvFrom {
		for j, s := range slots {
			mn, mx := tensor.MinMax(dxFull.Row(int(s) + lg.NumLocal))
			if got := st.ranges[backward][1][p][j]; got != mx-mn {
				t.Fatalf("peer %d slot %d: traced range %v, want %v", p, j, got, mx-mn)
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
	// Two layers: forward cubes carry layers 0 and 1, backward cubes layer 1
	// only (index 0 is nil in memory and absent on the wire).
	in := traceMsg{
		Rank:      2,
		RecvAlpha: [][]float64{{1, 2}, nil},
		Range: [2][][][]float32{
			forward:  {{{0.5}, {1.5, 2.5}}, {{0.25}, nil}},
			backward: {nil, {nil, {3}}},
		},
	}
	win := widthMsg{
		Send: [2][][][]quant.BitWidth{
			forward:  {{{quant.B2, quant.B8}, nil}, {{quant.B32, quant.B4, quant.B2, quant.B8, quant.B4}, nil}},
			backward: {nil, {{quant.B4}, nil}},
		},
		Recv: [2][][][]quant.BitWidth{
			forward:  {{nil, {quant.B4}}, {nil, nil}},
			backward: {nil, {nil, {quant.B8}}},
		},
	}
	// The sideband bytes are a wire format, pinned as hex. They were re-pinned
	// on purpose when ranges went from float64 squares to float32 max−min,
	// widths from one byte to a 2-bit code, and the layer-0 backward cubes
	// left the wire. Byte by byte: the trace is rank 2, RecvAlpha
	// [[1 2] []], the forward range cube [[[0.5] [1.5 2.5]] [[0.25] []]] and
	// the backward one [[[] [3]]] (f32 0.5 = 0000003f); the widths are the
	// forward Send cube with codes B2,B8 = 0b1000 = 08 and
	// B32,B4,B2,B8 | B4 = 0b10000111 | 0b01 = 87 01, forward Recv (B4 = 01),
	// backward Send (01) and backward Recv (B8 = 02).
	const (
		wantTrace = "02000000" + "02000000" + "02000000000000000000f03f0000000000000040" + "00000000" +
			"02000000" + "02000000" + "010000000000003f" + "020000000000c03f00002040" +
			"02000000" + "010000000000803e" + "00000000" +
			"01000000" + "02000000" + "00000000" + "0100000000004040"
		wantWidths = "02000000" + "02000000" + "0200000008" + "00000000" + "02000000" + "050000008701" + "00000000" +
			"02000000" + "02000000" + "00000000" + "0100000001" + "02000000" + "00000000" + "00000000" +
			"01000000" + "02000000" + "0100000001" + "00000000" +
			"01000000" + "02000000" + "00000000" + "0100000002"
	)
	enc := encodeTrace(&in)
	if got := hex.EncodeToString(enc); got != wantTrace {
		t.Fatalf("encodeTrace bytes changed:\n got  %s\n want %s", got, wantTrace)
	}
	var out traceMsg
	if err := decodeTrace(enc, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("trace round trip mangled:\n got  %+v\n want %+v", out, in)
	}

	wenc := encodeWidths(&win)
	if got := hex.EncodeToString(wenc); got != wantWidths {
		t.Fatalf("encodeWidths bytes changed:\n got  %s\n want %s", got, wantWidths)
	}
	var wout widthMsg
	if err := decodeWidths(wenc, &wout); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wout, win) {
		t.Fatalf("width round trip mangled:\n got  %+v\n want %+v", wout, win)
	}

	// Every Valid width has a code, and every code decodes to a Valid width.
	for _, w := range []quant.BitWidth{quant.B2, quant.B4, quant.B8, quant.B32} {
		if c := widthCode(w); codeWidths[c] != w {
			t.Errorf("width %d encodes as %d, which decodes as %d", w, c, codeWidths[c])
		}
	}

	// Truncated payloads must error, never panic or over-allocate: the
	// length prefixes are validated against the remaining bytes. So must a
	// trailing byte, and a set padding bit after the last 2-bit code.
	for _, cut := range []int{0, 1, 5, len(enc) / 2, len(enc) - 1} {
		var m traceMsg
		if err := decodeTrace(enc[:cut], &m); err == nil {
			t.Errorf("trace truncated at %d decoded without error", cut)
		}
	}
	for _, cut := range []int{1, len(wenc) / 2, len(wenc) - 1} {
		var m widthMsg
		if err := decodeWidths(wenc[:cut], &m); err == nil {
			t.Errorf("widths truncated at %d decoded without error", cut)
		}
	}
	if err := decodeTrace(append(enc[:len(enc):len(enc)], 0), &traceMsg{}); err == nil {
		t.Error("trace with a trailing byte decoded without error")
	}
	padded := append([]byte(nil), wenc...)
	padded[12] |= 0x10 // the byte holding B2,B8: slots 2 and 3 are padding
	if err := decodeWidths(padded, &widthMsg{}); err == nil {
		t.Error("widths with a set padding bit decoded without error")
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
		m := &traceMsg{Rank: r, Range: st.ranges, RecvAlpha: make([][]float64, 3)}
		for p := range m.RecvAlpha {
			m.RecvAlpha[p] = make([]float64, len(lg.RecvFrom[p]))
		}
		reports[r] = m
	}
	widths := &widthMsg{}
	for _, dir := range directions {
		for _, cube := range []*[][][]quant.BitWidth{&widths.Send[dir], &widths.Recv[dir]} {
			*cube = emptyWidthGrid(dir, cfg.Layers, 3)
			for l := dir.firstLayer(); l < cfg.Layers; l++ {
				for d := range (*cube)[l] {
					(*cube)[l][d] = quant.UniformWidths(len(dep.Locals[0].SendTo[d]), quant.B4)
				}
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
	// One AdaQP run with a mid-range λ: the bootstrap epoch ships at
	// bootstrapBits and the later ones at the widths solved from its
	// traces. On tiny the solver keeps nearly every message at
	// bootstrapBits (73 of the last 2,795 send widths go below), and the
	// assigner rounds' sideband outweighs that saving, so traffic cannot
	// show the adaptation: only simulated time and traffic are checked.
	ds := synthetic.MustLoad("tiny", 1)
	cfg := tinyConfig(CodecAdaptive)
	cfg.Lambda = 0.3
	res, err := trainBlock(ds, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
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

// TestAssignChargeIsSlowestSolve: the master solves its problems side by
// side, so an assignment round charges rank 0 the slowest problem's solve,
// not the sum. Each (layer, direction) keeps a different share of its traced
// rows, so the five problems differ in group count. On links with no
// per-byte cost the smaller payloads move no clock, so the frozen round
// (which charges the sum) must differ by exactly sum − max: on rank 0 as
// Assign, on every other rank as the Idle spent waiting for the scatter.
func TestAssignChargeIsSlowestSolve(t *testing.T) {
	dep := deployTiny(t, 3)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.GroupSize = 1 // one group per message
	model := *timing.Default()
	model.Bandwidth = math.Inf(1)

	newStates := func() []*assignState {
		states := make([]*assignState, len(dep.Locals))
		for r, lg := range dep.Locals {
			st := newAssignState(&cfg, lg, dep.Dataset.Features.Cols)
			rng := tensor.NewRNG(uint64(r + 1))
			for _, dir := range directions {
				for l := dir.firstLayer(); l < cfg.Layers; l++ {
					keep := 2*l + int(dir) + 1 // keep 1/keep of the rows
					for p, rs := range st.ranges[dir][l] {
						rs = rs[:(len(rs)+keep-1)/keep]
						for j := range rs {
							rs[j] = rng.Float32()
						}
						st.ranges[dir][l][p] = rs
					}
				}
			}
			states[r] = st
		}
		return states
	}
	var costs []timing.Seconds
	var slowest, sum timing.Seconds
	states := newStates()
	for _, dir := range directions {
		for l := dir.firstLayer(); l < cfg.Layers; l++ {
			groups := 0
			for src, st := range states {
				for dst, rs := range st.ranges[dir][l] {
					if dst != src {
						groups += len(rs)
					}
				}
			}
			c := solveCost(groups)
			costs = append(costs, c)
			slowest = max(slowest, c)
			sum += c
		}
	}
	if len(costs) != 2*cfg.Layers-1 || costs[0] == costs[1] || costs[1] == costs[2] {
		t.Fatalf("per-problem costs %v: want 5 problems of unequal size", costs)
	}

	inprocess, err := LookupTransport(TransportInprocess)
	if err != nil {
		t.Fatal(err)
	}
	run := func(round func(Transport, *assignState) error) []*timing.Clock {
		states := newStates()
		rt := inprocess(TransportSpec{Parts: len(states), Model: &model})
		if err := rt.Run(1, func(dev Transport) error { return round(dev, states[dev.Rank()]) }); err != nil {
			t.Fatal(err)
		}
		return rt.Clocks()
	}
	got := run(func(dev Transport, st *assignState) error { return runAssignment(dev, &cfg, st) })
	ref := run(func(dev Transport, st *assignState) error {
		_, err := refRunAssignment(dev, &cfg, st)
		return err
	})

	if a := got[0].Spent(timing.Assign); a != slowest {
		t.Fatalf("rank 0 Assign %v, want the slowest solve %v (costs %v)", a, slowest, costs)
	}
	const eps = 1e-12
	if a := ref[0].Spent(timing.Assign); math.Abs(float64(a-sum)) > eps {
		t.Fatalf("reference rank 0 Assign %v, want the sum %v", a, sum)
	}
	for r := 1; r < len(got); r++ {
		shrink := ref[r].Spent(timing.Idle) - got[r].Spent(timing.Idle)
		if math.Abs(float64(shrink-(sum-slowest))) > eps {
			t.Errorf("rank %d: Idle shrank by %v, want %v", r, shrink, sum-slowest)
		}
		if got[r].Spent(timing.Assign) != 0 {
			t.Errorf("rank %d charged Assign %v: only the master solves", r, got[r].Spent(timing.Assign))
		}
	}
}

// TestAssignRejectsDisagreeingTraces: a trace that decodes cleanly but
// disagrees with its peers — rank 1 ships Σα² for only half of each halo
// list — fails the round with an error that names rank 1 and a peer that
// traced rows to it, instead of panicking in a solver goroutine, and every
// device returns.
func TestAssignRejectsDisagreeingTraces(t *testing.T) {
	dep := deployTiny(t, 3)
	cfg := DefaultConfig()
	cfg.Hidden = 16
	states := make([]*assignState, len(dep.Locals))
	for r, lg := range dep.Locals {
		states[r] = newAssignState(&cfg, lg, dep.Dataset.Features.Cols)
	}
	for p, a := range states[1].recvAlpha {
		states[1].recvAlpha[p] = a[:len(a)/2]
	}
	inprocess, err := LookupTransport(TransportInprocess)
	if err != nil {
		t.Fatal(err)
	}
	rt := inprocess(TransportSpec{Parts: len(states), Model: timing.Default()})
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(1, func(dev Transport) error { return runAssignment(dev, &cfg, states[dev.Rank()]) })
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 0 traces") || !strings.Contains(err.Error(), "to rank 1") {
			t.Fatalf("round with rank 1's Σα² rows halved returned %v, want an error naming ranks 0 and 1", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("round with rank 1's Σα² rows halved did not return")
	}
}

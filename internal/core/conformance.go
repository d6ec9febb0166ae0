package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// This file is the executable form of the Transport contract (see
// transport.go): every registered backend — and any future out-of-tree one
// — must pass ConformTransport before training results on it can be
// trusted. The checks treat package cluster's documented semantics as the
// specification: collective payload delivery, receiver buffer ownership,
// simulated clock charging (Comm/Idle split), byte accounting, and the
// silence of the Raw* metrics sideband, plus a scripted run compared
// field-by-field against the in-process backend.
//
// Each clause is checked in one place. The rooted collectives (gather,
// scatter, broadcast, and the split-phase scatter and broadcast waited at
// once) are rows of one table, rootedCases: each row names its root, its
// payload sizes, its reference rule (the slowest transfer or the sum of
// transfers, folded here from TransferTime, never read from package
// cluster) and whether BytesMoved records its transfers. The entry charge
// (expectCharge), the byte ledger (compareLedger), ring delivery and
// ownership (ringRounds) and clock parity (compareClock) are one helper
// each; the chaos suite reuses the last three.

// Violation is one conformance failure: Check names the contract clause
// ("barrier-clock", "payload-ownership", ...), Detail says what diverged.
type Violation struct {
	Check  string
	Detail string
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// vioCollector accumulates violations from concurrent device bodies.
type vioCollector struct {
	mu sync.Mutex
	v  []Violation
}

func (c *vioCollector) addf(check, format string, args ...any) {
	c.mu.Lock()
	c.v = append(c.v, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
	c.mu.Unlock()
}

// ConformTransport verifies a runtime backend against the synchronous
// Transport collective contract with parts devices, using
// the default cost model. It returns nil when the backend conforms; each
// Violation pinpoints a contract clause the backend broke. parts >= 2 is
// required to exercise cross-device traffic.
func ConformTransport(f RuntimeFactory, parts int) []Violation {
	if parts < 2 {
		return []Violation{{Check: "setup", Detail: fmt.Sprintf("conformance needs parts >= 2, got %d", parts)}}
	}
	col := &vioCollector{}
	checkBarrier(f, parts, col)
	checkRingAll2All(f, parts, col)
	checkAllReduce(f, parts, col)
	for _, c := range rootedCases(parts) {
		checkRooted(f, parts, c, col)
	}
	checkOverlapCharge(f, parts, col)
	checkRawSideband(f, parts, col)
	checkReferenceParity(f, parts, col)
	return col.v
}

// runBody runs body on a fresh runtime from f, recording a runtime-error
// violation instead of propagating failures.
func runBody(f RuntimeFactory, parts int, col *vioCollector, body func(Transport) error) Runtime {
	rt := f(TransportSpec{Parts: parts})
	if err := rt.Run(1, body); err != nil {
		col.addf("runtime-error", "%v", err)
	}
	return rt
}

// skew advances each device's clock by a rank-dependent compute time so
// the checks can observe how the collective aligns stragglers.
func skew(dev Transport) (own, max timing.Seconds) {
	own = timing.Seconds(dev.Rank() + 1)
	dev.Clock().Advance(timing.Comp, own)
	return own, timing.Seconds(dev.Size())
}

// expectCharge is the entry charge of every blocking collective on a
// device that skew delayed by own: Idle is the straggler gap max−own,
// Comm is want (the reference rule, described by rule), and no Overlap is
// recorded — a blocking form is Start followed at once by Wait, so no
// compute runs inside its window.
func expectCharge(col *vioCollector, check string, dev Transport, own, max, want timing.Seconds, rule string) {
	r, ck := dev.Rank(), dev.Clock()
	if comm := ck.Spent(timing.Comm); comm != want {
		col.addf(check, "rank %d charged %v to Comm, want %s %v", r, comm, rule, want)
	}
	if idle := ck.Spent(timing.Idle); idle != max-own {
		col.addf(check, "rank %d charged %v to Idle, want the straggler gap %v", r, idle, max-own)
	}
	if ov := ck.Spent(timing.Overlap); ov != 0 {
		col.addf(check, "rank %d recorded %v Overlap with no compute inside the window, want 0", r, ov)
	}
}

// compareLedger requires the byte ledger got to equal want pair by pair.
func compareLedger(col *vioCollector, check, label string, got, want [][]int64) {
	for s := range want {
		for d := range want[s] {
			if got[s][d] != want[s][d] {
				col.addf(check, "%s: pair (%d,%d) recorded %d bytes, want %d", label, s, d, got[s][d], want[s][d])
			}
		}
	}
}

// compareClock requires a device clock to equal a reference clock: total
// time and every category, Overlap included.
func compareClock(col *vioCollector, check, label string, rank int, got, want *timing.Clock) {
	if got.Now() != want.Now() {
		col.addf(check, "%s: rank %d clock %v, reference %v", label, rank, got.Now(), want.Now())
	}
	for cat := timing.Comm; cat <= timing.Overlap; cat++ {
		if got.Spent(cat) != want.Spent(cat) {
			col.addf(check, "%s: rank %d charged %v to %v, reference %v", label, rank, got.Spent(cat), cat, want.Spent(cat))
		}
	}
}

// checkBarrier: all devices must rendezvous (no device passes before every
// device arrived) and align clocks to the slowest arrival, charging the
// gap to Idle.
func checkBarrier(f RuntimeFactory, parts int, col *vioCollector) {
	var arrived int32
	runBody(f, parts, col, func(dev Transport) error {
		own, max := skew(dev)
		// Wall-clock stagger makes a non-rendezvousing barrier observable:
		// early ranks would pass while late ranks have not yet arrived.
		time.Sleep(time.Duration(dev.Rank()) * 2 * time.Millisecond)
		atomic.AddInt32(&arrived, 1)
		dev.Barrier()
		if got := atomic.LoadInt32(&arrived); got != int32(parts) {
			col.addf("barrier-rendezvous", "rank %d passed the barrier having observed %d/%d arrivals", dev.Rank(), got, parts)
		}
		if now := dev.Clock().Now(); now != max {
			col.addf("barrier-clock", "rank %d clock %v after barrier, want alignment to slowest arrival %v", dev.Rank(), now, max)
		}
		expectCharge(col, "barrier-clock", dev, own, max, 0, "no wire time")
		return nil
	})
}

// ringSizes returns deterministic, pairwise-distinct payload sizes.
func ringSizes(parts int) [][]int {
	sizes := make([][]int, parts)
	for s := range sizes {
		sizes[s] = make([]int, parts)
		for d := range sizes[s] {
			if s != d {
				sizes[s][d] = 32*(s+1) + 8*(d+1)
			}
		}
	}
	return sizes
}

// ringSend returns rank r's RingAll2All payloads of the given round.
func ringSend(r int, sizes [][]int, round int) [][]byte {
	p := make([][]byte, len(sizes))
	for q := range p {
		if q != r {
			p[q] = pattern(sizes[r][q], r, q, round)
		}
	}
	return p
}

// pattern fills a deterministic, (src,dst,round)-tagged payload.
func pattern(n, src, dst, round int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(src*31 + dst*13 + round*7 + i)
	}
	return buf
}

// ringRounds runs two RingAll2All rounds of ringSizes payloads on dev.
// After each round every peer's payload must have arrived intact and the
// self slot must be nil (check deliver); after the second, the buffers the
// first returned must be untouched — they belong to the device now, and a
// later collective must not recycle them (check own). between runs after
// the first round.
func ringRounds(dev Transport, col *vioCollector, deliver, own, label string, between func()) {
	r, parts := dev.Rank(), dev.Size()
	sizes := ringSizes(parts)
	round := func(n int) [][]byte {
		got := dev.RingAll2All(ringSend(r, sizes, n))
		for p := range parts {
			var want []byte
			if p != r {
				want = pattern(sizes[p][r], p, r, n)
			}
			if (got[p] == nil) != (want == nil) || !bytes.Equal(got[p], want) {
				col.addf(deliver, "%s: rank %d received a wrong round-%d payload from %d", label, r, n, p)
			}
		}
		return got
	}
	first := round(0)
	between()
	snapshot := make([][]byte, parts)
	for p, b := range first {
		snapshot[p] = append([]byte(nil), b...)
	}
	round(1)
	for p := range parts {
		if !bytes.Equal(first[p], snapshot[p]) {
			col.addf(own, "%s: rank %d's buffer from %d was overwritten by a later collective", label, r, p)
		}
	}
}

// checkRingAll2All: payload delivery, receiver buffer ownership across
// calls, the round-by-round Comm charge, entry Idle alignment, and byte
// accounting.
func checkRingAll2All(f RuntimeFactory, parts int, col *vioCollector) {
	sizes := ringSizes(parts)
	perCall := cluster.All2AllTime(timing.Default(), sizes)
	rt := runBody(f, parts, col, func(dev Transport) error {
		own, max := skew(dev)
		ringRounds(dev, col, "all2all-payload", "payload-ownership", "all2all", func() {
			expectCharge(col, "all2all-clock-charge", dev, own, max, perCall, "the ring schedule's")
		})
		return nil
	})
	want := make([][]int64, parts)
	for s := range want {
		want[s] = make([]int64, parts)
		for d, n := range sizes[s] {
			want[s][d] = int64(2 * n)
		}
	}
	compareLedger(col, "byte-accounting", "all2all", rt.BytesMoved(), want)
}

// checkAllReduce: deterministic rank-ordered sums identical on every
// device, charged as cluster.AllReduceTime on every device.
func checkAllReduce(f RuntimeFactory, parts int, col *vioCollector) {
	const rows, cols = 3, 4
	fill := func(rank int) []float32 {
		data := make([]float32, rows*cols)
		for i := range data {
			data[i] = float32(rank*len(data)+i+1) / 3
		}
		return data
	}
	// The contract sums in rank order, so the expected bits come from the
	// same left-to-right accumulation.
	want := fill(0)
	for r := 1; r < parts; r++ {
		for i, v := range fill(r) {
			want[i] += v
		}
	}
	wantComm := cluster.AllReduceTime(timing.Default(), parts, rows*cols*4)
	runBody(f, parts, col, func(dev Transport) error {
		r := dev.Rank()
		own, max := skew(dev)
		m := tensor.New(rows, cols)
		copy(m.Data, fill(r))
		dev.AllReduceSum([]*tensor.Matrix{m})
		for i, v := range m.Data {
			if v != want[i] {
				col.addf("allreduce-value", "rank %d element %d = %v, want rank-ordered sum %v", r, i, v, want[i])
				break
			}
		}
		expectCharge(col, "allreduce-clock-charge", dev, own, max, wantComm, "the cheapest schedule's")
		return nil
	})
}

// refRule folds the TransferTime of a rooted collective's transfers into
// the Comm it charges every device.
type refRule struct {
	name string
	fold func(acc, t timing.Seconds) timing.Seconds
}

var (
	slowestTransfer = refRule{"the slowest transfer", func(acc, t timing.Seconds) timing.Seconds { return max(acc, t) }}
	sumOfTransfers  = refRule{"the sum of transfers", func(acc, t timing.Seconds) timing.Seconds { return acc + t }}
)

// rootedCase is one row of the rooted-collective clause: a collective in
// which root sends to (or, for a gather, receives from) every other
// device, size(peer) bytes each way.
type rootedCase struct {
	op    string // opGather, opScatter or opBroadcast
	split bool   // StartX(...).Wait() instead of the blocking form
	// payload and charge name the Check of a wrong delivery and of a
	// wrong entry charge.
	payload, charge string
	root            int
	size            func(peer int) int
	round           int // pattern tag
	rule            refRule
	logged          bool // BytesMoved records the transfers
}

// rootedCases is the rooted clause's table.
func rootedCases(parts int) []rootedCase {
	return []rootedCase{
		{op: opGather, payload: "gather-payload", charge: "gather-clock-charge", root: parts - 1,
			size: func(p int) int { return 24 * (p + 1) }, round: 0, rule: slowestTransfer, logged: true},
		// Scatter payloads are root-authored control state, not device
		// traffic: the reference leaves them out of the byte ledger.
		{op: opScatter, payload: "scatter-payload", charge: "scatter-clock-charge", root: parts / 2,
			size: func(p int) int { return 16 * (p + 2) }, round: 2, rule: slowestTransfer},
		{op: opBroadcast, payload: "broadcast-payload", charge: "broadcast-clock-charge", root: 1 % parts,
			size: func(int) int { return 80 }, round: 3, rule: sumOfTransfers, logged: true},
		// A split-phase collective whose Wait immediately follows Start
		// must be indistinguishable from the blocking one.
		{op: opBroadcast, split: true, payload: "split-payload", charge: "split-broadcast-charge", root: 1 % parts,
			size: func(int) int { return 88 }, round: 11, rule: sumOfTransfers, logged: true},
		{op: opScatter, split: true, payload: "split-payload", charge: "split-scatter-charge", root: parts / 2,
			size: func(p int) int { return 20 * (p + 2) }, round: 12, rule: slowestTransfer},
	}
}

// transfers calls fn for each of c's transfers: root to every peer, or
// every peer to root for a gather.
func (c rootedCase) transfers(parts int, fn func(src, dst, size int)) {
	for peer := range parts {
		switch {
		case peer == c.root:
		case c.op == opGather:
			fn(peer, c.root, c.size(peer))
		default:
			fn(c.root, peer, c.size(peer))
		}
	}
}

// reference is the Comm every device is charged: c.rule folded over the
// transfers' TransferTime.
func (c rootedCase) reference(model *timing.CostModel, parts int) timing.Seconds {
	var ref timing.Seconds
	c.transfers(parts, func(src, dst, size int) { ref = c.rule.fold(ref, model.TransferTime(src, dst, size)) })
	return ref
}

// run performs c's collective on dev and returns what the device received
// next to what it should have received: a gather's root holds every
// device's payload and the other ranks nil, a scatter delivers each rank
// its own slice, a broadcast delivers root's payload everywhere.
func (c rootedCase) run(dev Transport) (got, want [][]byte) {
	r, parts, root := dev.Rank(), dev.Size(), c.root
	if c.op == opGather {
		got = dev.GatherBytes(root, pattern(c.size(r), r, root, c.round))
		if r == root {
			for src := range parts {
				want = append(want, pattern(c.size(src), src, root, c.round))
			}
		}
		return got, want
	}
	// slice is what root sends dst; a broadcast sends everyone its own.
	slice := func(dst int) []byte {
		if c.op == opBroadcast {
			dst = root
		}
		return pattern(c.size(dst), root, dst, c.round)
	}
	var out []byte
	if c.op == opScatter {
		var send [][]byte
		if r == root {
			for dst := range parts {
				send = append(send, slice(dst))
			}
		}
		if c.split {
			out = dev.StartScatter(root, send).Wait()
		} else {
			out = dev.ScatterBytes(root, send)
		}
	} else {
		var send []byte
		if r == root {
			send = slice(root)
		}
		if c.split {
			out = dev.StartBroadcast(root, send).Wait()
		} else {
			out = dev.BroadcastBytes(root, send)
		}
	}
	return [][]byte{out}, [][]byte{slice(r)}
}

// checkRooted checks one rootedCases row: payloads, the entry charge
// against the row's reference rule, and the row's byte ledger.
func checkRooted(f RuntimeFactory, parts int, c rootedCase, col *vioCollector) {
	ref := c.reference(timing.Default(), parts)
	rt := runBody(f, parts, col, func(dev Transport) error {
		own, max := skew(dev)
		if got, want := c.run(dev); (got == nil) != (want == nil) || !slices.EqualFunc(got, want, bytes.Equal) {
			col.addf(c.payload, "rank %d holds a wrong %s result from root %d (split %v)", dev.Rank(), c.op, c.root, c.split)
		}
		expectCharge(col, c.charge, dev, own, max, ref, c.rule.name)
		return nil
	})
	want := make([][]int64, parts)
	for s := range want {
		want[s] = make([]int64, parts)
	}
	if c.logged {
		c.transfers(parts, func(src, dst, size int) { want[src][dst] = int64(size) })
	}
	compareLedger(col, "byte-accounting", c.charge, rt.BytesMoved(), want)
}

// checkOverlapCharge: compute issued between Start and Wait must hide the
// collective's latency — fully hidden windows charge nothing to Comm/Idle
// and record the window under Overlap; partially hidden windows charge
// only the uncovered tail. Expected values are produced by replaying each
// schedule through timing.FinishDeferred on a scratch clock, so equality
// is bitwise. Three schedules: full hide (with skewed ranks), partial
// hide, and two handles in flight waited FIFO.
func checkOverlapCharge(f RuntimeFactory, parts int, col *vioCollector) {
	const size = 96
	wire := func(root int) timing.Seconds {
		bc := rootedCase{op: opBroadcast, root: root, size: func(int) int { return size }, rule: sumOfTransfers}
		return bc.reference(timing.Default(), parts)
	}
	root := parts - 1
	align := timing.Seconds(parts) // slowest skewed rank's Start
	hide := align + 2*wire(root)   // out-computes the window on every rank
	payload := func(dev Transport, root, round int) []byte {
		if dev.Rank() != root {
			return nil
		}
		return pattern(size, root, root, round)
	}

	// Full hide: every rank computes past align+wire before waiting.
	runBody(f, parts, col, func(dev Transport) error {
		own, _ := skew(dev)
		p := dev.StartBroadcast(root, payload(dev, root, 13))
		dev.Clock().Advance(timing.Comp, hide)
		if out := p.Wait(); !bytes.Equal(out, pattern(size, root, root, 13)) {
			col.addf("split-payload", "rank %d received a wrong overlapped broadcast payload from %d", dev.Rank(), root)
		}
		ref := timing.NewClock()
		ref.Advance(timing.Comp, own)
		ref.Advance(timing.Comp, hide)
		timing.FinishDeferred(ref, own, align, wire(root))
		compareClock(col, "overlap-charge", "full-hide", dev.Rank(), dev.Clock(), ref)
		return nil
	})

	// Partial hide: no skew, so every rank starts at 0 and computes half
	// the wire time — the tail must be charged to Comm, the covered half
	// recorded as Overlap.
	runBody(f, parts, col, func(dev Transport) error {
		p := dev.StartBroadcast(root, payload(dev, root, 14))
		dev.Clock().Advance(timing.Comp, wire(root)/2)
		p.Wait()
		ref := timing.NewClock()
		ref.Advance(timing.Comp, wire(root)/2)
		timing.FinishDeferred(ref, 0, 0, wire(root))
		compareClock(col, "overlap-charge", "partial-hide", dev.Rank(), dev.Clock(), ref)
		return nil
	})

	// Two in flight, waited FIFO: both windows open before either closes.
	runBody(f, parts, col, func(dev Transport) error {
		r0, r1 := 0, 1%parts
		h0 := dev.StartBroadcast(r0, payload(dev, r0, 15))
		h1 := dev.StartBroadcast(r1, payload(dev, r1, 16))
		dev.Clock().Advance(timing.Comp, hide)
		got0, got1 := h0.Wait(), h1.Wait()
		if !bytes.Equal(got0, pattern(size, r0, r0, 15)) || !bytes.Equal(got1, pattern(size, r1, r1, 16)) {
			col.addf("split-payload", "rank %d received wrong payloads from two in-flight broadcasts", dev.Rank())
		}
		ref := timing.NewClock()
		ref.Advance(timing.Comp, hide)
		timing.FinishDeferred(ref, 0, 0, wire(r0))
		timing.FinishDeferred(ref, 0, 0, wire(r1))
		compareClock(col, "overlap-charge", "two-in-flight", dev.Rank(), dev.Clock(), ref)
		return nil
	})
}

// checkRawSideband: Raw* collectives move correct data but charge nothing
// and stay out of BytesMoved — they model out-of-band metrics, not the
// system under study.
func checkRawSideband(f RuntimeFactory, parts int, col *vioCollector) {
	rt := runBody(f, parts, col, func(dev Transport) error {
		r := dev.Rank()
		payloads := make([][]byte, parts)
		for q := range payloads {
			if q != r {
				payloads[q] = pattern(48, r, q, 4)
			}
		}
		recv := dev.RawAll2All(payloads)
		for p := 0; p < parts; p++ {
			if p != r && !bytes.Equal(recv[p], pattern(48, p, r, 4)) {
				col.addf("raw-payload", "rank %d received wrong RawAll2All payload from %d", r, p)
			}
		}
		all := dev.RawAllGather(pattern(8, r, r, 5))
		for p := 0; p < parts; p++ {
			if !bytes.Equal(all[p], pattern(8, p, p, 5)) {
				col.addf("raw-payload", "rank %d received wrong RawAllGather payload from %d", r, p)
			}
		}
		if now := dev.Clock().Now(); now != 0 {
			col.addf("raw-uncharged", "rank %d clock at %v after Raw* collectives, want 0 (metrics sideband)", r, now)
		}
		return nil
	})
	none := make([][]int64, parts)
	for s := range none {
		none[s] = make([]int64, parts)
	}
	compareLedger(col, "raw-ledger", "Raw* collectives", rt.BytesMoved(), none)
}

// conformScript is a fixed mixed-collective workload; the candidate's
// clocks and byte matrix after running it must match the in-process
// reference exactly.
func conformScript(dev Transport) error {
	r, n := dev.Rank(), dev.Size()
	dev.Clock().Advance(timing.Comp, timing.Seconds(float64(r)*0.25))
	dev.Barrier()
	payloads := make([][]byte, n)
	for q := range payloads {
		if q != r {
			payloads[q] = pattern(16*(r+q+1), r, q, 6)
		}
	}
	dev.RingAll2All(payloads)
	m := tensor.New(4, 4)
	for i := range m.Data {
		m.Data[i] = float32(r + i)
	}
	dev.AllReduceSum([]*tensor.Matrix{m})
	dev.GatherBytes(0, pattern(64*(r+1), r, 0, 7))
	var sc [][]byte
	if r == n-1 {
		sc = make([][]byte, n)
		for dst := range sc {
			sc[dst] = pattern(32*(dst+1), r, dst, 8)
		}
	}
	dev.ScatterBytes(n-1, sc)
	var bc []byte
	if r == n/2 {
		bc = pattern(200, r, r, 9)
	}
	dev.BroadcastBytes(n/2, bc)
	// Split-phase section: a broadcast and a scatter with rank-dependent
	// compute inside each window, so the parity checks cover the
	// FinishDeferred charging (including Overlap) across backends.
	var sb []byte
	if r == 0 {
		sb = pattern(120, r, r, 17)
	}
	pb := dev.StartBroadcast(0, sb)
	dev.Clock().Advance(timing.Comp, timing.Seconds(float64(n-r)*0.125))
	pb.Wait()
	var sp [][]byte
	if r == n-1 {
		sp = make([][]byte, n)
		for dst := range sp {
			sp[dst] = pattern(24*(dst+2), r, dst, 18)
		}
	}
	ps := dev.StartScatter(n-1, sp)
	dev.Clock().Advance(timing.Comp, timing.Seconds(float64(r+1)*0.0625))
	ps.Wait()
	dev.RawAllGather(pattern(8, r, r, 10))
	return nil
}

// checkReferenceParity runs conformScript on the candidate and on the
// in-process backend and requires identical per-device simulated clocks
// (total and per category) and byte accounting.
func checkReferenceParity(f RuntimeFactory, parts int, col *vioCollector) {
	ref, err := LookupTransport(TransportInprocess)
	if err != nil {
		col.addf("reference-parity", "no in-process backend registered: %v", err)
		return
	}
	cand := runBody(f, parts, col, conformScript)
	want := runBody(ref, parts, col, conformScript)
	for r, ck := range want.Clocks() {
		compareClock(col, "reference-parity", "scripted run", r, cand.Clocks()[r], ck)
	}
	compareLedger(col, "reference-parity", "scripted run", cand.BytesMoved(), want.BytesMoved())
}

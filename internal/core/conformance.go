package core

import (
	"bytes"
	"fmt"
	"math"
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
	checkGather(f, parts, col)
	checkScatter(f, parts, col)
	checkBroadcast(f, parts, col)
	checkSplitBroadcast(f, parts, col)
	checkSplitScatter(f, parts, col)
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
		if idle := dev.Clock().Spent(timing.Idle); idle != max-own {
			col.addf("barrier-clock", "rank %d charged %v to Idle, want the straggler gap %v", dev.Rank(), idle, max-own)
		}
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

// pattern fills a deterministic, (src,dst,round)-tagged payload.
func pattern(n, src, dst, round int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(src*31 + dst*13 + round*7 + i)
	}
	return buf
}

// checkRingAll2All: payload delivery, receiver buffer ownership across
// calls, the round-by-round Comm charge, entry Idle alignment, and byte
// accounting.
func checkRingAll2All(f RuntimeFactory, parts int, col *vioCollector) {
	sizes := ringSizes(parts)
	perCall := cluster.All2AllTime(timing.Default(), sizes)
	rt := runBody(f, parts, col, func(dev Transport) error {
		r := dev.Rank()
		own, max := skew(dev)
		makePayloads := func(round int) [][]byte {
			p := make([][]byte, parts)
			for q := range p {
				if q != r {
					p[q] = pattern(sizes[r][q], r, q, round)
				}
			}
			return p
		}
		first := dev.RingAll2All(makePayloads(0))
		for p := 0; p < parts; p++ {
			if p == r {
				if first[p] != nil {
					col.addf("all2all-payload", "rank %d received a non-nil self payload", r)
				}
				continue
			}
			if !bytes.Equal(first[p], pattern(sizes[p][r], p, r, 0)) {
				col.addf("all2all-payload", "rank %d received wrong payload from %d", r, p)
			}
		}
		if comm := dev.Clock().Spent(timing.Comm); comm != perCall {
			col.addf("all2all-clock-charge", "rank %d charged %v to Comm, want the ring schedule's %v", r, comm, perCall)
		}
		if idle := dev.Clock().Spent(timing.Idle); idle != max-own {
			col.addf("all2all-clock-charge", "rank %d charged %v to Idle, want the entry-wait gap %v", r, idle, max-own)
		}
		// Ownership: the buffers returned by the first call belong to this
		// device now — a second collective must not recycle them.
		snapshot := make([][]byte, parts)
		for p, b := range first {
			snapshot[p] = append([]byte(nil), b...)
		}
		second := dev.RingAll2All(makePayloads(1))
		for p := 0; p < parts; p++ {
			if p == r {
				continue
			}
			if !bytes.Equal(first[p], snapshot[p]) {
				col.addf("payload-ownership", "rank %d's buffer from %d was overwritten by a later collective", r, p)
			}
			if !bytes.Equal(second[p], pattern(sizes[p][r], p, r, 1)) {
				col.addf("all2all-payload", "rank %d received wrong second-round payload from %d", r, p)
			}
		}
		return nil
	})
	moved := rt.BytesMoved()
	for s := range moved {
		for d := range moved[s] {
			if moved[s][d] != int64(2*sizes[s][d]) {
				col.addf("byte-accounting", "pair (%d,%d) recorded %d bytes, want %d", s, d, moved[s][d], 2*sizes[s][d])
			}
		}
	}
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
		if comm := dev.Clock().Spent(timing.Comm); comm != wantComm {
			col.addf("allreduce-clock-charge", "rank %d charged %v to Comm, want the cheapest schedule's %v", r, comm, wantComm)
		}
		if idle := dev.Clock().Spent(timing.Idle); idle != max-own {
			col.addf("allreduce-clock-charge", "rank %d charged %v to Idle, want %v", r, idle, max-own)
		}
		return nil
	})
}

// checkGather: root collects every payload, non-roots return nil, every
// device charges the slowest incoming transfer, senders are accounted.
func checkGather(f RuntimeFactory, parts int, col *vioCollector) {
	root := parts - 1
	model := timing.Default()
	size := func(r int) int { return 24 * (r + 1) }
	var wantComm timing.Seconds
	for src := 0; src < parts; src++ {
		if src == root {
			continue
		}
		if t := model.TransferTime(src, root, size(src)); t > wantComm {
			wantComm = t
		}
	}
	rt := runBody(f, parts, col, func(dev Transport) error {
		r := dev.Rank()
		own, max := skew(dev)
		out := dev.GatherBytes(root, pattern(size(r), r, root, 0))
		if r == root {
			for src := 0; src < parts; src++ {
				if out == nil || !bytes.Equal(out[src], pattern(size(src), src, root, 0)) {
					col.addf("gather-payload", "root %d holds wrong payload from %d", root, src)
				}
			}
		} else if out != nil {
			col.addf("gather-payload", "non-root rank %d received a gather result", r)
		}
		if comm := dev.Clock().Spent(timing.Comm); comm != wantComm {
			col.addf("gather-clock-charge", "rank %d charged %v to Comm, want slowest incoming transfer %v", r, comm, wantComm)
		}
		if idle := dev.Clock().Spent(timing.Idle); idle != max-own {
			col.addf("gather-clock-charge", "rank %d charged %v to Idle, want %v", r, idle, max-own)
		}
		return nil
	})
	moved := rt.BytesMoved()
	for s := range moved {
		for d := range moved[s] {
			want := int64(0)
			if s != root && d == root {
				want = int64(size(s))
			}
			if moved[s][d] != want {
				col.addf("byte-accounting", "gather pair (%d,%d) recorded %d bytes, want %d", s, d, moved[s][d], want)
			}
		}
	}
}

// checkScatter: each device receives exactly its slice from root, charged
// as the slowest outgoing transfer.
func checkScatter(f RuntimeFactory, parts int, col *vioCollector) {
	root := parts / 2
	model := timing.Default()
	size := func(d int) int { return 16 * (d + 2) }
	var wantComm timing.Seconds
	for dst := 0; dst < parts; dst++ {
		if dst == root {
			continue
		}
		if t := model.TransferTime(root, dst, size(dst)); t > wantComm {
			wantComm = t
		}
	}
	rt := runBody(f, parts, col, func(dev Transport) error {
		r := dev.Rank()
		own, max := skew(dev)
		var payloads [][]byte
		if r == root {
			payloads = make([][]byte, parts)
			for dst := range payloads {
				payloads[dst] = pattern(size(dst), root, dst, 2)
			}
		}
		out := dev.ScatterBytes(root, payloads)
		if !bytes.Equal(out, pattern(size(r), root, r, 2)) {
			col.addf("scatter-payload", "rank %d received a wrong scatter slice from %d", r, root)
		}
		if comm := dev.Clock().Spent(timing.Comm); comm != wantComm {
			col.addf("scatter-clock-charge", "rank %d charged %v to Comm, want slowest outgoing transfer %v", r, comm, wantComm)
		}
		if idle := dev.Clock().Spent(timing.Idle); idle != max-own {
			col.addf("scatter-clock-charge", "rank %d charged %v to Idle, want %v", r, idle, max-own)
		}
		return nil
	})
	// The reference deliberately leaves scatter out of the byte ledger
	// (its payloads are root-authored control state, not device traffic);
	// backends must match, or BytesMoved diverges across transports.
	moved := rt.BytesMoved()
	for s := range moved {
		for d := range moved[s] {
			if moved[s][d] != 0 {
				col.addf("byte-accounting", "scatter pair (%d,%d) recorded %d bytes, want 0 (scatter is not byte-accounted)", s, d, moved[s][d])
			}
		}
	}
}

// checkBroadcast: every device ends with root's payload and charges the
// sequential-broadcast total; root's sends are byte-accounted.
func checkBroadcast(f RuntimeFactory, parts int, col *vioCollector) {
	root := 1 % parts
	model := timing.Default()
	const size = 80
	var wantComm timing.Seconds
	for dst := 0; dst < parts; dst++ {
		if dst != root {
			wantComm += model.TransferTime(root, dst, size)
		}
	}
	rt := runBody(f, parts, col, func(dev Transport) error {
		r := dev.Rank()
		own, max := skew(dev)
		var payload []byte
		if r == root {
			payload = pattern(size, root, root, 3)
		}
		out := dev.BroadcastBytes(root, payload)
		if !bytes.Equal(out, pattern(size, root, root, 3)) {
			col.addf("broadcast-payload", "rank %d received a wrong broadcast payload from %d", r, root)
		}
		if comm := dev.Clock().Spent(timing.Comm); comm != wantComm {
			col.addf("broadcast-clock-charge", "rank %d charged %v to Comm, want sequential broadcast %v", r, comm, wantComm)
		}
		if idle := dev.Clock().Spent(timing.Idle); idle != max-own {
			col.addf("broadcast-clock-charge", "rank %d charged %v to Idle, want %v", r, idle, max-own)
		}
		return nil
	})
	moved := rt.BytesMoved()
	for s := range moved {
		for d := range moved[s] {
			want := int64(0)
			if s == root && d != root {
				want = size
			}
			if moved[s][d] != want {
				col.addf("byte-accounting", "broadcast pair (%d,%d) recorded %d bytes, want %d", s, d, moved[s][d], want)
			}
		}
	}
}

// checkSplitBroadcast: a split-phase broadcast whose Wait immediately
// follows Start must be indistinguishable from the blocking collective —
// same payload, same Comm/Idle charges bit for bit, nothing recorded as
// Overlap (no compute ran inside the window), same byte ledger.
func checkSplitBroadcast(f RuntimeFactory, parts int, col *vioCollector) {
	root := 1 % parts
	model := timing.Default()
	const size = 88
	var wantComm timing.Seconds
	for dst := 0; dst < parts; dst++ {
		if dst != root {
			wantComm += model.TransferTime(root, dst, size)
		}
	}
	rt := runBody(f, parts, col, func(dev Transport) error {
		r := dev.Rank()
		own, max := skew(dev)
		var payload []byte
		if r == root {
			payload = pattern(size, root, root, 11)
		}
		out := dev.StartBroadcast(root, payload).Wait()
		if !bytes.Equal(out, pattern(size, root, root, 11)) {
			col.addf("split-payload", "rank %d received a wrong split-broadcast payload from %d", r, root)
		}
		if comm := dev.Clock().Spent(timing.Comm); comm != wantComm {
			col.addf("split-broadcast-charge", "rank %d charged %v to Comm, want the blocking sequential broadcast %v", r, comm, wantComm)
		}
		if idle := dev.Clock().Spent(timing.Idle); idle != max-own {
			col.addf("split-broadcast-charge", "rank %d charged %v to Idle, want %v", r, idle, max-own)
		}
		if ov := dev.Clock().Spent(timing.Overlap); ov != 0 {
			col.addf("split-broadcast-charge", "rank %d recorded %v Overlap with no compute inside the window, want 0", r, ov)
		}
		return nil
	})
	moved := rt.BytesMoved()
	for s := range moved {
		for d := range moved[s] {
			want := int64(0)
			if s == root && d != root {
				want = size
			}
			if moved[s][d] != want {
				col.addf("byte-accounting", "split-broadcast pair (%d,%d) recorded %d bytes, want %d", s, d, moved[s][d], want)
			}
		}
	}
}

// checkSplitScatter: the scatter analogue of checkSplitBroadcast —
// immediate Wait equals the blocking charge (slowest outgoing transfer),
// no Overlap, and scatter stays out of the byte ledger.
func checkSplitScatter(f RuntimeFactory, parts int, col *vioCollector) {
	root := parts / 2
	model := timing.Default()
	size := func(d int) int { return 20 * (d + 2) }
	var wantComm timing.Seconds
	for dst := 0; dst < parts; dst++ {
		if dst == root {
			continue
		}
		if t := model.TransferTime(root, dst, size(dst)); t > wantComm {
			wantComm = t
		}
	}
	rt := runBody(f, parts, col, func(dev Transport) error {
		r := dev.Rank()
		own, max := skew(dev)
		var payloads [][]byte
		if r == root {
			payloads = make([][]byte, parts)
			for dst := range payloads {
				payloads[dst] = pattern(size(dst), root, dst, 12)
			}
		}
		out := dev.StartScatter(root, payloads).Wait()
		if !bytes.Equal(out, pattern(size(r), root, r, 12)) {
			col.addf("split-payload", "rank %d received a wrong split-scatter slice from %d", r, root)
		}
		if comm := dev.Clock().Spent(timing.Comm); comm != wantComm {
			col.addf("split-scatter-charge", "rank %d charged %v to Comm, want the blocking slowest outgoing transfer %v", r, comm, wantComm)
		}
		if idle := dev.Clock().Spent(timing.Idle); idle != max-own {
			col.addf("split-scatter-charge", "rank %d charged %v to Idle, want %v", r, idle, max-own)
		}
		if ov := dev.Clock().Spent(timing.Overlap); ov != 0 {
			col.addf("split-scatter-charge", "rank %d recorded %v Overlap with no compute inside the window, want 0", r, ov)
		}
		return nil
	})
	moved := rt.BytesMoved()
	for s := range moved {
		for d := range moved[s] {
			if moved[s][d] != 0 {
				col.addf("byte-accounting", "split-scatter pair (%d,%d) recorded %d bytes, want 0 (scatter is not byte-accounted)", s, d, moved[s][d])
			}
		}
	}
}

// compareOverlapClock compares a device's clock to a reference clock that
// applied the canonical charging rule (timing.FinishDeferred) to the same
// schedule.
func compareOverlapClock(col *vioCollector, label string, dev Transport, ref *timing.Clock) {
	ck := dev.Clock()
	if ck.Now() != ref.Now() {
		col.addf("overlap-charge", "%s: rank %d clock %v, canonical schedule %v", label, dev.Rank(), ck.Now(), ref.Now())
	}
	for _, cat := range []timing.Category{timing.Comm, timing.Idle, timing.Overlap} {
		if ck.Spent(cat) != ref.Spent(cat) {
			col.addf("overlap-charge", "%s: rank %d charged %v to %v, canonical schedule %v", label, dev.Rank(), ck.Spent(cat), cat, ref.Spent(cat))
		}
	}
}

// checkOverlapCharge: compute issued between Start and Wait must hide the
// collective's latency — fully hidden windows charge nothing to Comm/Idle
// and record the window under Overlap; partially hidden windows charge
// only the uncovered tail. Expected values are produced by replaying each
// schedule through timing.FinishDeferred on a scratch clock, so equality
// is bitwise. Three schedules: full hide (with skewed ranks), partial
// hide, and two handles in flight waited FIFO.
func checkOverlapCharge(f RuntimeFactory, parts int, col *vioCollector) {
	model := timing.Default()
	const size = 96
	root := parts - 1
	var wire timing.Seconds
	for dst := 0; dst < parts; dst++ {
		if dst != root {
			wire += model.TransferTime(root, dst, size)
		}
	}
	align := timing.Seconds(parts) // slowest skewed rank's Start
	hide := align + 2*wire         // out-computes the window on every rank

	// Full hide: every rank computes past align+wire before waiting.
	runBody(f, parts, col, func(dev Transport) error {
		r := dev.Rank()
		own, _ := skew(dev)
		var payload []byte
		if r == root {
			payload = pattern(size, root, root, 13)
		}
		p := dev.StartBroadcast(root, payload)
		dev.Clock().Advance(timing.Comp, hide)
		if out := p.Wait(); !bytes.Equal(out, pattern(size, root, root, 13)) {
			col.addf("split-payload", "rank %d received a wrong overlapped broadcast payload from %d", r, root)
		}
		ref := timing.NewClock()
		ref.Advance(timing.Comp, own)
		ref.Advance(timing.Comp, hide)
		timing.FinishDeferred(ref, own, align, wire)
		compareOverlapClock(col, "full-hide", dev, ref)
		return nil
	})

	// Partial hide: no skew, so every rank starts at 0 and computes half
	// the wire time — the tail must be charged to Comm, the covered half
	// recorded as Overlap.
	runBody(f, parts, col, func(dev Transport) error {
		r := dev.Rank()
		var payload []byte
		if r == root {
			payload = pattern(size, root, root, 14)
		}
		p := dev.StartBroadcast(root, payload)
		dev.Clock().Advance(timing.Comp, wire/2)
		p.Wait()
		ref := timing.NewClock()
		ref.Advance(timing.Comp, wire/2)
		timing.FinishDeferred(ref, 0, 0, wire)
		compareOverlapClock(col, "partial-hide", dev, ref)
		return nil
	})

	// Two in flight, waited FIFO: both windows open before either closes.
	runBody(f, parts, col, func(dev Transport) error {
		r := dev.Rank()
		var p0, p1 []byte
		if r == 0 {
			p0 = pattern(size, 0, 0, 15)
		}
		if r == 1%parts {
			p1 = pattern(size, 1%parts, 1%parts, 16)
		}
		h0 := dev.StartBroadcast(0, p0)
		h1 := dev.StartBroadcast(1%parts, p1)
		dev.Clock().Advance(timing.Comp, hide)
		got0, got1 := h0.Wait(), h1.Wait()
		if !bytes.Equal(got0, pattern(size, 0, 0, 15)) || !bytes.Equal(got1, pattern(size, 1%parts, 1%parts, 16)) {
			col.addf("split-payload", "rank %d received wrong payloads from two in-flight broadcasts", r)
		}
		var wire0, wire1 timing.Seconds
		for dst := 0; dst < parts; dst++ {
			if dst != 0 {
				wire0 += model.TransferTime(0, dst, size)
			}
			if dst != 1%parts {
				wire1 += model.TransferTime(1%parts, dst, size)
			}
		}
		ref := timing.NewClock()
		ref.Advance(timing.Comp, hide)
		timing.FinishDeferred(ref, 0, 0, wire0)
		timing.FinishDeferred(ref, 0, 0, wire1)
		compareOverlapClock(col, "two-in-flight", dev, ref)
		return nil
	})
}

// checkRawSideband: Raw* collectives move correct data but charge nothing
// — they model out-of-band metrics, not the system under study.
func checkRawSideband(f RuntimeFactory, parts int, col *vioCollector) {
	runBody(f, parts, col, func(dev Transport) error {
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
	cats := []timing.Category{timing.Comm, timing.Comp, timing.Quant, timing.Idle, timing.Assign, timing.Overlap}
	for r := 0; r < parts; r++ {
		got, exp := cand.Clocks()[r], want.Clocks()[r]
		if got.Now() != exp.Now() {
			col.addf("reference-parity", "rank %d clock %v, reference %v (diff %g)", r, got.Now(), exp.Now(), math.Abs(float64(got.Now()-exp.Now())))
		}
		for _, cat := range cats {
			if got.Spent(cat) != exp.Spent(cat) {
				col.addf("reference-parity", "rank %d charged %v to %v, reference %v", r, got.Spent(cat), cat, exp.Spent(cat))
			}
		}
	}
	gotB, wantB := cand.BytesMoved(), want.BytesMoved()
	for s := range wantB {
		for d := range wantB[s] {
			if gotB[s][d] != wantB[s][d] {
				col.addf("reference-parity", "pair (%d,%d) moved %d bytes, reference %d", s, d, gotB[s][d], wantB[s][d])
			}
		}
	}
}

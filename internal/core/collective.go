package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// This file is the one collective engine behind every built-in backend:
// inprocess (alias sharded-async) and proc-sharded. Every device is one
// goroutine, multiplexed by the Go scheduler. The engine owns everything
// the simulated clock depends on — the sequence-numbered coordination
// record (who posted, at what simulated time, shipping how many bytes to
// whom), the charge rules (package cluster's pure functions,
// timing.FinishDeferred), the byte ledger, abort and unwinding — and every
// Transport method exactly once. Every charged collective is synchronous:
// it aligns on its slowest arrival, as the paper's training does. Payload
// bytes never enter the record: they reach their receiver through a
// delivery, and the engine's charges cannot depend on when they do.

// parcel is one payload in flight, addressed by the collective it belongs
// to and its two ends.
type parcel struct {
	frameKey
	payload []byte
}

// delivery is how posted payloads reach their receivers: pointers handed
// straight back (inprocess) or frames through a fleet of worker processes
// (proc-sharded). A device sends everything it ships in one collective as
// one post, so a transport can put it on the wire as one write. A delivery
// guarantees exactly-once hand-off: every parcel sent is delivered exactly
// once, with the same key and the payload's bytes, from any goroutine, at
// any later time, in any order; the receiver owns the delivered buffer.
type delivery interface {
	// start readies the delivery for one Run. fail reports a broken
	// delivery outside any send call.
	start(deliver func(parcel), fail func(error)) error
	// send hands one post over. It may block on the transport but never on
	// a receiver. The post slice is the caller's again once it returns, and
	// no payload is retained unless it is the very buffer later delivered.
	send(post []parcel) error
	// stop ends the Run for the delivery: failed reports that a body
	// returned an error, broken that the delivery itself failed mid-run.
	stop(failed, broken bool) error
}

// Collective op tags, used to catch devices whose collective sequences
// diverge (a contract violation that would otherwise corrupt payloads).
// Split-phase ops have their own tags: a run where one device issues the
// blocking form and another the split form of the same collective has
// diverged and must panic.
const (
	opBarrier        = "Barrier"
	opRing           = "RingAll2All"
	opAllReduce      = "AllReduceSum"
	opGather         = "GatherBytes"
	opScatter        = "ScatterBytes"
	opBroadcast      = "BroadcastBytes"
	opStartBroadcast = "StartBroadcast"
	opStartScatter   = "StartScatter"
	opRawRing        = "RawAll2All"
	opRawGather      = "RawAllGather"
)

// abortRun is the sentinel panic that unwinds device goroutines when a
// peer's body fails or the delivery breaks, so a mid-run error cannot
// strand the others in a wait.
type abortRun struct{}

// coll is one sequence number's coordination record.
type coll struct {
	op       string
	arrived  int
	finished int              // devices done with it; the last one prunes it
	at       []timing.Seconds // poster's clock at post time
	sizes    [][]int          // sizes[src][dst]: bytes src ships to dst (nil row: nothing)
}

func (c *coll) maxAt() timing.Seconds {
	return slices.Max(c.at)
}

// frameKey addresses one delivered payload.
type frameKey struct{ seq, src, dst int }

// engine is the Runtime shared by every device of one run.
type engine struct {
	n     int
	model *timing.CostModel
	dlv   delivery

	clocks []*timing.Clock

	mu         sync.Mutex
	cond       *sync.Cond
	bytesMoved [][]int64 // with clocks, the only state that outlives a Run
	colls      map[int]*coll
	inbox      map[frameKey][]byte
	aborted    bool
	abortErr   error // first delivery failure (nil when a body failed)
}

// newEngine builds the engine for spec.Parts devices, one goroutine each,
// with payloads moving through dlv.
func newEngine(spec TransportSpec, dlv delivery) *engine {
	n := spec.Parts
	if n <= 0 {
		panic("core: a runtime needs at least one device")
	}
	model := spec.Model
	if model == nil {
		model = timing.Default()
	}
	e := &engine{
		n:          n,
		model:      model,
		dlv:        dlv,
		clocks:     make([]*timing.Clock, n),
		bytesMoved: make([][]int64, n),
	}
	e.cond = sync.NewCond(&e.mu)
	for i := range e.clocks {
		e.clocks[i] = timing.NewClock()
		e.bytesMoved[i] = make([]int64, n)
	}
	return e
}

func (e *engine) Size() int               { return e.n }
func (e *engine) Clocks() []*timing.Clock { return e.clocks }

func (e *engine) BytesMoved() [][]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([][]int64, e.n)
	for i := range out {
		out[i] = slices.Clone(e.bytesMoved[i])
	}
	return out
}

// Run resets the coordination state (clocks and byte totals persist),
// starts the delivery, runs body on every device and stops the delivery.
// The first body error (by rank) wins over a delivery failure, which wins
// over a failed stop.
func (e *engine) Run(seed uint64, body func(Transport) error) error {
	inbox := make(map[frameKey][]byte)
	e.mu.Lock()
	e.colls, e.inbox = make(map[int]*coll), inbox
	e.aborted, e.abortErr = false, nil
	e.mu.Unlock()
	// deliver writes this Run's inbox, so a straggling hand-off from a
	// delivery that was killed cannot leak into the next Run. It never
	// blocks on a device, so delivery goroutines cannot deadlock against
	// device waits.
	deliver := func(p parcel) {
		e.mu.Lock()
		inbox[p.frameKey] = p.payload
		e.cond.Broadcast()
		e.mu.Unlock()
	}
	if err := e.dlv.start(deliver, e.abort); err != nil {
		return err
	}
	errs := make([]error, e.n)
	var wg sync.WaitGroup
	for rank := 0; rank < e.n; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(abortRun); !ok {
						panic(p)
					}
				}
			}()
			dev := &device{e: e, rank: rank, rng: deviceRNG(seed, rank)}
			if errs[rank] = body(dev); errs[rank] != nil {
				e.abort(nil)
			}
		}()
	}
	wg.Wait()
	e.mu.Lock()
	wireErr := e.abortErr
	e.mu.Unlock()
	failed := slices.ContainsFunc(errs, func(err error) bool { return err != nil })
	stopErr := e.dlv.stop(failed, wireErr != nil)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if wireErr != nil {
		return wireErr
	}
	return stopErr
}

// deviceRNG derives device rank's private deterministic dropout stream for
// a run seeded with seed.
func deviceRNG(seed uint64, rank int) *tensor.RNG {
	return tensor.NewRNG(seed ^ (uint64(rank+1) * 0x9e3779b97f4a7c15))
}

// roundingRNG derives device rank's stochastic-rounding stream
// (ExchangeEnv.Round) for a run seeded with seed: the same (seed, rank) as
// deviceRNG under a distinct multiplier, so the two streams are unrelated.
func roundingRNG(seed uint64, rank int) *tensor.RNG {
	return tensor.NewRNG(seed ^ (uint64(rank+1) * 0xd1b54a32d192ed03))
}

// abort unwinds every device; err is non-nil when the delivery failed.
func (e *engine) abort(err error) {
	e.mu.Lock()
	e.aborted = true
	if e.abortErr == nil {
		e.abortErr = err
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// wait blocks until pred holds (evaluated under the engine lock). Panics
// with abortRun if the run was aborted.
func (e *engine) wait(pred func() bool) {
	e.mu.Lock()
	for !e.aborted && !pred() {
		e.cond.Wait()
	}
	aborted := e.aborted
	e.mu.Unlock()
	if aborted {
		panic(abortRun{})
	}
}

// fail aborts the run over a delivery failure and unwinds the caller.
func (e *engine) fail(err error) {
	e.abort(err)
	panic(abortRun{})
}

// addBytes records src's sends of one collective in the byte ledger: its
// posted size vector, sizes[dst] payload bytes to every peer.
func (e *engine) addBytes(src int, sizes []int) {
	e.mu.Lock()
	for dst, n := range sizes {
		e.bytesMoved[src][dst] += int64(n)
	}
	e.mu.Unlock()
}

// device is one device's Transport endpoint.
type device struct {
	e    *engine
	rank int
	seq  int // next collective sequence number
	rng  *tensor.RNG
	out  []parcel // sendPeers' post scratch
}

func (d *device) Rank() int                { return d.rank }
func (d *device) Size() int                { return d.e.n }
func (d *device) Clock() *timing.Clock     { return d.e.clocks[d.rank] }
func (d *device) Model() *timing.CostModel { return d.e.model }
func (d *device) Rand() *tensor.RNG        { return d.rng }

// next claims this device's next sequence number. It never waits: every
// record and payload is keyed by its sequence number, so a device may post
// the next collective while a peer is still finishing this one.
func (d *device) next() int {
	seq := d.seq
	d.seq++
	return seq
}

// send hands one post to the delivery. Self-sends never happen: a device's
// own payload stays a local pointer and is returned as it is.
func (d *device) send(post ...parcel) {
	if err := d.e.dlv.send(post); err != nil {
		d.e.fail(err)
	}
}

// sendPeers hands payloads[dst] to every peer as one post and returns the
// size vector to post (nothing is shipped to self, so its own entry stays
// 0).
func (d *device) sendPeers(seq int, payloads [][]byte) []int {
	sizes := make([]int, len(payloads))
	d.out = d.out[:0]
	for dst, p := range payloads {
		if dst != d.rank {
			sizes[dst] = len(p)
			d.out = append(d.out, parcel{frameKey{seq, d.rank, dst}, p})
		}
	}
	d.send(d.out...)
	return sizes
}

// replicate returns the payloads vector that ships the same buffer to
// every device.
func (d *device) replicate(payload []byte) [][]byte {
	out := make([][]byte, d.e.n)
	for i := range out {
		out[i] = payload
	}
	return out
}

// post publishes this device's arrival at sequence seq — its simulated
// time and what it ships to whom — and returns that time. It follows the
// sends, so a peer that sees the post never waits on the pointer delivery.
func (d *device) post(seq int, op string, sizes []int) timing.Seconds {
	e := d.e
	now := d.Clock().Now()
	e.mu.Lock()
	if e.aborted {
		e.mu.Unlock()
		panic(abortRun{})
	}
	c, ok := e.colls[seq]
	if !ok {
		c = &coll{op: op, at: make([]timing.Seconds, e.n), sizes: make([][]int, e.n)}
		e.colls[seq] = c
	}
	if c.op != op {
		e.mu.Unlock()
		panic(fmt.Sprintf("core: collective %d is %s on one device and %s on another (devices diverged)", seq, c.op, op))
	}
	c.at[d.rank], c.sizes[d.rank] = now, sizes
	c.arrived++
	e.cond.Broadcast()
	e.mu.Unlock()
	return now
}

// waitAll blocks until every device has posted sequence seq and returns
// the record.
func (d *device) waitAll(seq int) *coll {
	e := d.e
	var c *coll
	e.wait(func() bool {
		c = e.colls[seq]
		return c != nil && c.arrived == e.n
	})
	return c
}

// rendezvous waits for every device to post seq and charges the gap to the
// slowest arrival to Idle — the entry of every charged collective.
func (d *device) rendezvous(seq int) *coll {
	c := d.waitAll(seq)
	d.Clock().AdvanceTo(timing.Idle, c.maxAt())
	return c
}

// recv blocks until the payload src sent this device at seq has been
// delivered, and consumes it.
func (d *device) recv(seq, src int) []byte {
	e := d.e
	key := frameKey{seq, src, d.rank}
	var buf []byte
	e.wait(func() bool {
		b, ok := e.inbox[key]
		if ok {
			buf = b
			delete(e.inbox, key)
		}
		return ok
	})
	return buf
}

// recvPeers receives one payload from every peer into a fresh container
// (callers may retain it); own fills this device's slot.
func (d *device) recvPeers(seq int, own []byte) [][]byte {
	out := make([][]byte, d.e.n)
	for src := range out {
		if src == d.rank {
			out[src] = own
		} else {
			out[src] = d.recv(seq, src)
		}
	}
	return out
}

// complete marks this device done with collective seq; the last device
// done prunes its record.
func (d *device) complete(seq int) {
	e := d.e
	e.mu.Lock()
	c := e.colls[seq]
	if c.finished++; c.finished == e.n {
		delete(e.colls, seq)
	}
	e.mu.Unlock()
}

// Barrier aligns all devices; everyone's clock advances to the slowest
// arrival (gap charged to Idle).
func (d *device) Barrier() {
	seq := d.next()
	d.post(seq, opBarrier, nil)
	d.rendezvous(seq)
	d.complete(seq)
}

// RingAll2All exchanges per-destination buffers over the ring schedule
// (Fig. 8): arrival gaps are charged to Idle and each of the N−1 rounds
// costs as much as its slowest link, round by round in schedule order — the
// straggler effect of §2.2.
func (d *device) RingAll2All(payloads [][]byte) [][]byte {
	e := d.e
	if len(payloads) != e.n {
		panic(fmt.Sprintf("core: %s got %d payloads for %d devices", opRing, len(payloads), e.n))
	}
	seq := d.next()
	sizes := d.sendPeers(seq, payloads)
	d.post(seq, opRing, sizes)
	c := d.rendezvous(seq)
	for round := 1; round < e.n; round++ {
		d.Clock().Advance(timing.Comm, cluster.All2AllRoundTime(e.model, c.sizes, round))
	}
	e.addBytes(d.rank, sizes)
	received := d.recvPeers(seq, nil)
	d.complete(seq)
	return received
}

// AllReduceSum sums matrices elementwise across devices and charges
// cluster.AllReduceTime, the cheapest textbook schedule of the modelled
// testbed, whatever moves underneath. What moves is a reduce at rank 0 and a
// broadcast back, 2(N−1) parcels: every peer ships its matrices to rank 0 as
// raw float32 bits, rank 0 adds them to its own in rank order — so the
// result is deterministic — and ships the sums to every peer. Both
// directions are serialized copies, so a device may keep mutating its
// matrices while a straggler has yet to read.
func (d *device) AllReduceSum(ms []*tensor.Matrix) {
	e := d.e
	seq := d.next()
	if d.rank != 0 {
		d.send(parcel{frameKey{seq, d.rank, 0}, appendMats(ms)})
	}
	d.post(seq, opAllReduce, nil)
	d.rendezvous(seq)
	if d.rank == 0 {
		for src := 1; src < e.n; src++ {
			if err := readMats(ms, d.recv(seq, src), true); err != nil {
				e.fail(fmt.Errorf("core: allreduce: rank 0 decoding rank %d's matrices: %w", src, err))
			}
		}
		d.sendPeers(seq, d.replicate(appendMats(ms)))
	} else if err := readMats(ms, d.recv(seq, 0), false); err != nil {
		e.fail(fmt.Errorf("core: allreduce: rank %d decoding rank 0's sums: %w", d.rank, err))
	}
	bytes := 0
	for _, m := range ms {
		bytes += 4 * len(m.Data)
	}
	d.Clock().Advance(timing.Comm, cluster.AllReduceTime(e.model, e.n, bytes))
	d.complete(seq)
}

// GatherBytes collects every device's payload at root: every device aligns
// on the slowest arrival and charges the slowest incoming transfer.
func (d *device) GatherBytes(root int, payload []byte) [][]byte {
	e := d.e
	seq := d.next()
	var sizes []int
	if d.rank != root {
		sizes = make([]int, e.n)
		sizes[root] = len(payload)
		d.send(parcel{frameKey{seq, d.rank, root}, payload})
	}
	d.post(seq, opGather, sizes)
	c := d.rendezvous(seq)
	d.Clock().Advance(timing.Comm, cluster.GatherTime(e.model, c.sizes, root))
	var out [][]byte
	if d.rank == root {
		out = d.recvPeers(seq, payload)
	} else {
		e.addBytes(d.rank, sizes)
	}
	d.complete(seq)
	return out
}

// ScatterBytes distributes payloads[i] from root to device i (max outgoing
// transfer charged; scatter bytes are never counted — they are assignment
// metadata, not messages). payloads is only read on root.
func (d *device) ScatterBytes(root int, payloads [][]byte) []byte {
	return d.startOneToMany(opScatter, root, payloads).Wait()
}

// BroadcastBytes sends root's payload to all devices (sequential broadcast
// timing — SANCUS's pattern).
func (d *device) BroadcastBytes(root int, payload []byte) []byte {
	return d.startOneToMany(opBroadcast, root, d.replicate(payload)).Wait()
}

// StartScatter begins a split-phase scatter. Start never blocks and root's
// payloads leave immediately; Wait performs the rendezvous and charges the
// blocking schedule through timing.FinishDeferred, so compute issued in
// between hides wire time as Overlap.
func (d *device) StartScatter(root int, payloads [][]byte) PendingCollective {
	return d.startOneToMany(opStartScatter, root, payloads)
}

// StartBroadcast begins a split-phase broadcast under the same contract as
// StartScatter.
func (d *device) StartBroadcast(root int, payload []byte) PendingCollective {
	return d.startOneToMany(opStartBroadcast, root, d.replicate(payload))
}

// pending is a started scatter or broadcast — the split-phase handle, and
// the blocking forms too: by contract a Start immediately followed by its
// Wait charges bitwise like the blocking collective.
type pending struct {
	d         *device
	seq, root int
	broadcast bool // sequential-send timing and byte-accounted; else scatter
	start     timing.Seconds
	own       []byte // root's self-delivery, never sent
	done      bool
}

// startOneToMany enters a scatter or broadcast: root ships payloads[dst]
// to every peer, everyone posts. Non-root devices' payloads are ignored.
func (d *device) startOneToMany(op string, root int, payloads [][]byte) *pending {
	p := &pending{
		d:         d,
		seq:       d.next(),
		root:      root,
		broadcast: op == opBroadcast || op == opStartBroadcast,
	}
	var sizes []int
	if d.rank == root {
		if len(payloads) != d.e.n {
			panic(fmt.Sprintf("core: %s got %d payloads for %d devices", op, len(payloads), d.e.n))
		}
		sizes = d.sendPeers(p.seq, payloads)
		p.own = payloads[root]
	}
	p.start = d.post(p.seq, op, sizes)
	return p
}

// Wait completes the collective: it aligns on the slowest Start and charges
// the whole transfer through timing.FinishDeferred. A blocking form waits
// at once, so nothing is hidden and the charge is the blocking one.
func (p *pending) Wait() []byte {
	if p.done {
		panic("core: split-phase handle waited twice")
	}
	p.done = true
	d, e, root := p.d, p.d.e, p.root
	c := d.waitAll(p.seq)
	wire := cluster.ScatterTime(e.model, c.sizes, root)
	if p.broadcast {
		wire = cluster.BroadcastTime(e.model, c.sizes, root)
	}
	out := p.own
	if d.rank != root {
		out = d.recv(p.seq, root)
	} else if p.broadcast {
		e.addBytes(root, c.sizes[root])
	}
	timing.FinishDeferred(d.Clock(), p.start, c.maxAt(), wire)
	d.complete(p.seq)
	return out
}

// RawAll2All moves buffers like RingAll2All but charges no time.
func (d *device) RawAll2All(payloads [][]byte) [][]byte {
	if len(payloads) != d.e.n {
		panic(fmt.Sprintf("core: %s got %d payloads for %d devices", opRawRing, len(payloads), d.e.n))
	}
	seq := d.next()
	d.sendPeers(seq, payloads)
	d.post(seq, opRawRing, nil)
	received := d.recvPeers(seq, nil)
	d.complete(seq)
	return received
}

// RawAllGather shares one buffer from every device with every device,
// charging no time (metrics sideband).
func (d *device) RawAllGather(payload []byte) [][]byte {
	seq := d.next()
	d.sendPeers(seq, d.replicate(payload))
	d.post(seq, opRawGather, nil)
	out := d.recvPeers(seq, payload)
	d.complete(seq)
	return out
}

var _ Transport = (*device)(nil)

// appendMats serializes matrices for a delivery: u32 count, then per
// matrix u32 rows, u32 cols and the raw float32 bit patterns — bit-exact
// across the round trip, which the deterministic reduction requires.
func appendMats(ms []*tensor.Matrix) []byte {
	size := 4
	for _, m := range ms {
		size += 8 + 4*len(m.Data)
	}
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(ms)))
	for _, m := range ms {
		b = binary.LittleEndian.AppendUint32(b, uint32(m.Rows))
		b = binary.LittleEndian.AppendUint32(b, uint32(m.Cols))
		b = appendF32s(b, m.Data)
	}
	return b
}

// readMats decodes an appendMats stream into ms — added to what they hold,
// or overwriting it — element by element in stream order. The stream must be
// shaped exactly like ms; a matrix is only touched once its header and length
// have been checked.
func readMats(ms []*tensor.Matrix, b []byte, add bool) error {
	if len(b) < 4 || int(binary.LittleEndian.Uint32(b)) != len(ms) {
		return fmt.Errorf("matrix stream does not hold %d matrices", len(ms))
	}
	b = b[4:]
	for i, m := range ms {
		n := len(m.Data)
		if len(b) < 8+4*n ||
			int(binary.LittleEndian.Uint32(b)) != m.Rows || int(binary.LittleEndian.Uint32(b[4:])) != m.Cols {
			return fmt.Errorf("matrix %d is truncated or not %dx%d", i, m.Rows, m.Cols)
		}
		b = readF32s(m.Data, b[8:], add)
	}
	if len(b) != 0 {
		return fmt.Errorf("matrix stream has %d trailing bytes", len(b))
	}
	return nil
}

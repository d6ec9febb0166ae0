// Package cluster is the in-process distributed runtime: each training
// device is a goroutine, and collectives (ring all2all, allreduce, gather,
// scatter, barrier) move real byte buffers between them while charging
// simulated time to each device's timing.Clock.
//
// Synchronization model: every collective is entered by all devices.
// Internally the devices meet at reusable barriers; a barrier also aligns
// simulated clocks (everyone advances to the latest arrival, charging the
// gap to Idle) — exactly the waiting the paper's Fig. 4 depicts. Because
// all cross-device data flows through collectives and each device owns a
// private RNG, training runs are deterministic regardless of goroutine
// scheduling.
package cluster

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/tensor"
	"repro/internal/timing"
)

// Cluster owns the shared state for N devices.
type Cluster struct {
	n      int
	model  *timing.CostModel
	clocks []*timing.Clock

	// exchange[src][dst] is the buffer src posted for dst in the current
	// collective.
	exchange [][][]byte
	// mats[src] is the matrix slice src posted (for allreduce).
	mats [][]*tensor.Matrix
	// times[d] is scratch for clock alignment.
	times []timing.Seconds
	// bytesMoved accumulates total payload bytes per (src,dst) pair.
	bytesMu    sync.Mutex
	bytesMoved [][]int64

	// Rendezvous state, reset by every Run. arrived/gen are the reusable
	// N-party barrier; the barrier cannot serve a non-blocking Start, so
	// in-flight start/wait collectives rendezvous through the
	// sequence-keyed splitColls store instead. aborted is set when a device
	// body fails and unwinds every waiter.
	mu         sync.Mutex
	cond       *sync.Cond
	arrived    int
	gen        int
	splitColls map[int]*splitColl
	aborted    bool
}

// abortRun is the sentinel panic that unwinds device goroutines when a
// peer's body fails, so a mid-run error cannot strand the others in a wait.
type abortRun struct{}

// splitColl is one in-flight split-phase collective, keyed by each
// device's program-order sequence number (SPMD: every device's k-th Start
// is the same collective).
type splitColl struct {
	op     string
	root   int
	bufs   [][]byte // broadcast: bufs[dst] for dst != root; scatter: root's payloads
	at     []timing.Seconds
	posted int
	done   int
}

// New creates a cluster of n devices with the given cost model
// (timing.Default() if nil).
func New(n int, model *timing.CostModel) *Cluster {
	if n <= 0 {
		panic("cluster: need at least one device")
	}
	if model == nil {
		model = timing.Default()
	}
	c := &Cluster{
		n:        n,
		model:    model,
		clocks:   make([]*timing.Clock, n),
		exchange: make([][][]byte, n),
		mats:     make([][]*tensor.Matrix, n),
		times:    make([]timing.Seconds, n),
	}
	for i := range c.clocks {
		c.clocks[i] = timing.NewClock()
	}
	c.bytesMoved = make([][]int64, n)
	for i := range c.bytesMoved {
		c.bytesMoved[i] = make([]int64, n)
		c.exchange[i] = make([][]byte, n)
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Size returns the device count.
func (c *Cluster) Size() int { return c.n }

// Clocks returns the per-device simulated clocks (read after Run returns).
func (c *Cluster) Clocks() []*timing.Clock { return c.clocks }

// BytesMoved returns a copy of the per-pair payload byte totals.
func (c *Cluster) BytesMoved() [][]int64 {
	c.bytesMu.Lock()
	defer c.bytesMu.Unlock()
	out := make([][]int64, c.n)
	for i := range out {
		out[i] = append([]int64(nil), c.bytesMoved[i]...)
	}
	return out
}

// Device is the per-goroutine handle passed to Run's body.
type Device struct {
	c    *Cluster
	rank int
	RNG  *tensor.RNG

	// sizes is the reusable bytes[src][dst] table the charge functions read
	// (the cells a collective charges are rewritten per call). The received
	// containers themselves are always freshly allocated: callers are
	// allowed to retain them.
	sizes [][]int
	// sums is reusable reduction scratch for AllReduceSum, private to this
	// device between barriers.
	sums []*tensor.Matrix
	// splitSeq numbers this device's split-phase Starts in program order;
	// the k-th Start on every device is the same collective.
	splitSeq int
}

// sizeTable returns the device's n×n scratch table.
func (d *Device) sizeTable() [][]int {
	if d.sizes == nil {
		d.sizes = make([][]int, d.c.n)
		for i := range d.sizes {
			d.sizes[i] = make([]int, d.c.n)
		}
	}
	return d.sizes
}

// postedSizes returns the bytes[src][dst] table of the buffers currently
// posted in the exchange. Call it only between the barriers that fence a
// collective's reads.
func (d *Device) postedSizes() [][]int {
	sizes := d.sizeTable()
	for src, row := range d.c.exchange {
		for dst, buf := range row {
			sizes[src][dst] = len(buf)
		}
	}
	return sizes
}

// postAll publishes payloads[q] for every peer q and waits until every
// device has done the same.
func (d *Device) postAll(payloads [][]byte) {
	if len(payloads) != d.c.n {
		panic(fmt.Sprintf("cluster: all2all got %d payloads for %d devices", len(payloads), d.c.n))
	}
	for q, buf := range payloads {
		if q != d.rank {
			d.c.exchange[d.rank][q] = buf
		}
	}
	d.c.sync()
}

// collect returns what every peer posted for this device (nil for self) in
// a fresh container, then releases the exchange for the next collective.
func (d *Device) collect() [][]byte {
	received := make([][]byte, d.c.n)
	for p := range received {
		if p != d.rank {
			received[p] = d.c.exchange[p][d.rank]
		}
	}
	d.c.sync()
	return received
}

// addBytes records src's sends of one collective: sizes[dst] payload bytes
// to every other device.
func (c *Cluster) addBytes(src int, sizes []int) {
	c.bytesMu.Lock()
	for dst, n := range sizes {
		if dst != src {
			c.bytesMoved[src][dst] += int64(n)
		}
	}
	c.bytesMu.Unlock()
}

// Rank returns this device's id in [0, Size).
func (d *Device) Rank() int { return d.rank }

// Rand returns this device's private RNG (method form of the RNG field, so
// interfaces can abstract Device).
func (d *Device) Rand() *tensor.RNG { return d.RNG }

// Size returns the cluster size.
func (d *Device) Size() int { return d.c.n }

// Clock returns this device's simulated clock.
func (d *Device) Clock() *timing.Clock { return d.c.clocks[d.rank] }

// Model returns the shared cost model.
func (d *Device) Model() *timing.CostModel { return d.c.model }

// DeviceRNG derives device rank's private deterministic RNG for a run
// seeded with seed. Every runtime backend must use this same derivation so
// training results are bit-identical across transports.
func DeviceRNG(seed uint64, rank int) *tensor.RNG {
	return tensor.NewRNG(seed ^ (uint64(rank+1) * 0x9e3779b97f4a7c15))
}

// Run starts n goroutines executing body and waits for all to finish.
// Each device gets an RNG derived from seed and its rank. The first
// non-nil error (by rank) is returned; a failing body unwinds every peer
// blocked in a collective instead of stranding it. Clocks and byte totals
// carry over from earlier Runs, rendezvous state does not.
func (c *Cluster) Run(seed uint64, body func(*Device) error) error {
	c.mu.Lock()
	c.arrived, c.aborted = 0, false
	c.splitColls = make(map[int]*splitColl)
	c.mu.Unlock()
	errs := make([]error, c.n)
	var wg sync.WaitGroup
	for r := 0; r < c.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(abortRun); !ok {
						panic(p)
					}
				}
			}()
			dev := &Device{c: c, rank: rank, RNG: DeviceRNG(seed, rank)}
			if errs[rank] = body(dev); errs[rank] != nil {
				c.mu.Lock()
				c.aborted = true
				c.cond.Broadcast()
				c.mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Barrier aligns all devices; everyone's clock advances to the slowest
// arrival (gap charged to Idle).
func (d *Device) Barrier() {
	c := d.c
	c.times[d.rank] = d.Clock().Now()
	c.sync()
	d.Clock().AdvanceTo(timing.Idle, slices.Max(c.times))
	c.sync()
}

// RingAll2All exchanges byte buffers with every other device using the
// paper's ring pattern (Fig. 8): N−1 rounds, round i sends to (rank+i)%N
// and receives from (rank−i+N)%N, with a synchronization point per round so
// each round costs as much as its slowest link — the straggler effect of
// §2.2. payloads[q] is the buffer for device q (payloads[rank] ignored,
// may be nil). Returns received[p] = buffer device p sent us (nil for
// self). The Comm category is charged; the entry wait is charged to Idle.
func (d *Device) RingAll2All(payloads [][]byte) [][]byte {
	c := d.c
	d.Barrier()
	d.postAll(payloads)
	// Account time round by round, in schedule order.
	sizes := d.postedSizes()
	for round := 1; round < c.n; round++ {
		d.Clock().Advance(timing.Comm, All2AllRoundTime(c.model, sizes, round))
	}
	c.addBytes(d.rank, sizes[d.rank])
	return d.collect()
}

// All2AllRoundTime returns ring round `round`'s cost for the given
// per-destination sizes (bytes[src][dst]): the slowest pair of that round
// (synchronized rounds — the straggler effect of §2.2). Every runtime
// backend must charge this same schedule, round by round in order, so
// simulated clocks stay bit-identical across transports.
func All2AllRoundTime(model *timing.CostModel, bytes [][]int, round int) timing.Seconds {
	n := len(bytes)
	var roundTime timing.Seconds
	for src := 0; src < n; src++ {
		dst := (src + round) % n
		roundTime = max(roundTime, model.TransferTime(src, dst, bytes[src][dst]))
	}
	return roundTime
}

// All2AllTime returns what one RingAll2All with the given per-destination
// sizes (bytes[src][dst]) would cost, without moving data. Used by the
// bit-width assigner's time objective and by schedulers that overlap
// communication with computation.
func All2AllTime(model *timing.CostModel, bytes [][]int) timing.Seconds {
	n := len(bytes)
	var total timing.Seconds
	for round := 1; round < n; round++ {
		total += All2AllRoundTime(model, bytes, round)
	}
	return total
}

// AllReduceTime returns what one allreduce of bytes payload bytes costs
// every device of an n-device runtime: the cheapest of the three textbook
// schedules (Thakur, Rabenseifner & Gropp, "Optimization of Collective
// Communication Operations in MPICH", 2005) under the cost model. With
// p = 2^⌊log₂N⌋:
//
//   - ring: 2(N−1) steps of B/N, rank r sending to r+1;
//   - recursive doubling: log₂p exchanges of B, step k pairing r with
//     r XOR 2^k;
//   - Rabenseifner: log₂p recursive-halving exchanges of B/2^(k+1), then
//     the mirrored recursive-doubling all-gather.
//
// When N is not a power of two, the two log-step schedules first fold the
// first 2(N−p) ranks in pairs, even into odd, and unfold them after. Each
// step costs its slowest pair, θ·bytes + γ — the rule ring all2all rounds
// follow — so the schedule and its charge are the same on every rank. Every
// runtime backend must charge this same function so simulated clocks stay
// identical across transports, whatever moves underneath.
func AllReduceTime(model *timing.CostModel, n, bytes int) timing.Seconds {
	costs := allReduceCosts(model, n, bytes)
	return slices.Min(costs[:])
}

// The allreduce schedules AllReduceTime picks from, indexing
// allReduceCosts.
const (
	ringSchedule = iota
	doublingSchedule
	rabenseifnerSchedule
	numSchedules
)

// allReduceCosts returns each schedule's charge for one allreduce of bytes
// payload bytes on n devices.
func allReduceCosts(model *timing.CostModel, n, bytes int) [numSchedules]timing.Seconds {
	var costs [numSchedules]timing.Seconds
	if n <= 1 {
		return costs
	}
	b := float64(bytes)
	step := func(theta, b float64) timing.Seconds {
		return timing.Seconds(theta*b + model.Gamma())
	}
	var ring float64
	for r := 0; r < n; r++ {
		ring = max(ring, model.Theta(r, (r+1)%n))
	}
	costs[ringSchedule] = timing.Seconds(2*(n-1)) * step(ring, b/float64(n))

	// MPICH's fold: rank 2i+1 (i < rem) stands in for 2i and itself, every
	// rank from 2·rem on stands in for itself alone.
	p := 1
	for p*2 <= n {
		p *= 2
	}
	rem := n - p
	rankOf := func(v int) int {
		if v < rem {
			return 2*v + 1
		}
		return v + rem
	}
	var fold timing.Seconds
	if rem > 0 {
		var in, out float64
		for i := 0; i < rem; i++ {
			in = max(in, model.Theta(2*i, 2*i+1))
			out = max(out, model.Theta(2*i+1, 2*i))
		}
		fold = step(in, b) + step(out, b)
	}
	costs[doublingSchedule] = fold
	costs[rabenseifnerSchedule] = fold
	half := b
	for mask := 1; mask < p; mask *= 2 {
		var theta float64
		for v := 0; v < p; v++ {
			theta = max(theta, model.Theta(rankOf(v), rankOf(v^mask)))
		}
		half /= 2 // a halving exchange and its mirror in the all-gather
		costs[doublingSchedule] += step(theta, b)
		costs[rabenseifnerSchedule] += 2 * step(theta, half)
	}
	return costs
}

// GatherTime returns what a gather into root costs every device for the
// given sizes (bytes[src][root]): the slowest incoming transfer.
func GatherTime(model *timing.CostModel, bytes [][]int, root int) timing.Seconds {
	var t timing.Seconds
	for src := range bytes {
		if src != root {
			t = max(t, model.TransferTime(src, root, bytes[src][root]))
		}
	}
	return t
}

// ScatterTime returns what a scatter from root costs every device for the
// given sizes (bytes[root][dst]): the slowest outgoing transfer.
func ScatterTime(model *timing.CostModel, bytes [][]int, root int) timing.Seconds {
	var t timing.Seconds
	for dst, size := range bytes[root] {
		if dst != root {
			t = max(t, model.TransferTime(root, dst, size))
		}
	}
	return t
}

// BroadcastTime returns the cost of root's sequential broadcast
// (bytes[root][dst], SANCUS's pattern, §5.1) up to and including receiver
// last: root serializes its sends in rank order, so the whole broadcast is
// last = n−1 and a receiver that leaves as soon as its own copy landed
// pays the prefix ending at its rank. Summed in rank order — like every
// function here, backends must charge exactly this accumulation so
// simulated clocks stay bit-identical across transports.
func BroadcastTime(model *timing.CostModel, bytes [][]int, root, last int) timing.Seconds {
	var t timing.Seconds
	for dst := 0; dst <= last; dst++ {
		if dst != root {
			t += model.TransferTime(root, dst, bytes[root][dst])
		}
	}
	return t
}

// AllReduceSum sums the given matrices elementwise across devices; every
// device ends with the identical total (summed in rank order, so the
// result is deterministic). Time is charged as AllReduceTime, the cheapest
// textbook schedule, the same on every device.
func (d *Device) AllReduceSum(ms []*tensor.Matrix) {
	c := d.c
	d.Barrier()
	c.mats[d.rank] = ms
	c.sync()
	// Deterministic reduction: every device sums rank-ordered copies into
	// its private, reusable scratch.
	if len(d.sums) != len(ms) {
		d.sums = make([]*tensor.Matrix, len(ms))
	}
	sums := d.sums
	for i := range ms {
		if sums[i] == nil || !sums[i].SameShape(c.mats[0][i]) {
			sums[i] = tensor.New(c.mats[0][i].Rows, c.mats[0][i].Cols)
		}
		sums[i].CopyFrom(c.mats[0][i])
		for r := 1; r < c.n; r++ {
			sums[i].AddInPlace(c.mats[r][i])
		}
	}
	// Time model.
	bytes := 0
	for _, m := range ms {
		bytes += len(m.Data) * 4
	}
	d.Clock().Advance(timing.Comm, AllReduceTime(c.model, c.n, bytes))
	c.sync()
	for i := range ms {
		ms[i].CopyFrom(sums[i])
	}
	c.sync()
}

// GatherBytes collects every device's payload at root. Non-root devices
// receive nil. Charged as N−1 point-to-point transfers into root.
func (d *Device) GatherBytes(root int, payload []byte) [][]byte {
	c := d.c
	d.Barrier()
	c.exchange[d.rank][root] = payload
	c.sync()
	var out [][]byte
	d.Clock().Advance(timing.Comm, GatherTime(c.model, d.postedSizes(), root))
	if d.rank != root {
		c.bytesMu.Lock()
		c.bytesMoved[d.rank][root] += int64(len(payload))
		c.bytesMu.Unlock()
	}
	if d.rank == root {
		out = make([][]byte, c.n)
		for src := 0; src < c.n; src++ {
			out[src] = c.exchange[src][root]
		}
	}
	c.sync()
	return out
}

// ScatterBytes distributes payloads[i] from root to device i; returns this
// device's slice. payloads is only read on root.
func (d *Device) ScatterBytes(root int, payloads [][]byte) []byte {
	c := d.c
	d.Barrier()
	if d.rank == root {
		for q := 0; q < c.n; q++ {
			c.exchange[root][q] = payloads[q]
		}
	}
	c.sync()
	d.Clock().Advance(timing.Comm, ScatterTime(c.model, d.postedSizes(), root))
	out := c.exchange[root][d.rank]
	c.sync()
	return out
}

// BroadcastBytes sends root's payload to all devices (sequential broadcast
// timing: root serializes its sends — SANCUS's pattern, §5.1).
func (d *Device) BroadcastBytes(root int, payload []byte) []byte {
	c := d.c
	d.Barrier()
	if d.rank == root {
		for q := 0; q < c.n; q++ {
			if q != root {
				c.exchange[root][q] = payload
			}
		}
	}
	c.sync()
	sizes := d.postedSizes()
	d.Clock().Advance(timing.Comm, BroadcastTime(c.model, sizes, root, c.n-1))
	var out []byte
	if d.rank == root {
		out = payload
		c.addBytes(root, sizes[root])
	} else {
		out = c.exchange[root][d.rank]
	}
	c.sync()
	return out
}

// PendingBytes is the handle returned by a split-phase collective's
// Start call. Wait blocks until every device has posted the collective,
// charges this device's clock via timing.FinishDeferred, and returns the
// same bytes the blocking form would return. Handles must be waited
// exactly once, in Start order (FIFO) — the completion schedule is part
// of the deterministic clock contract. A Start immediately followed by
// its Wait charges bitwise-identically to the blocking collective.
type PendingBytes interface {
	Wait() []byte
}

// Split-phase op tags; devices must agree on the op and root of each
// sequence-numbered collective or the run panics (programming error).
const (
	opSplitBroadcast = "split-broadcast"
	opSplitScatter   = "split-scatter"
)

// splitGet returns (creating if needed) the in-flight collective for seq,
// panicking if devices disagree on what collective seq is. Caller holds
// c.mu.
func (c *Cluster) splitGet(seq int, op string, root int) *splitColl {
	coll := c.splitColls[seq]
	if coll == nil {
		coll = &splitColl{
			op:   op,
			root: root,
			bufs: make([][]byte, c.n),
			at:   make([]timing.Seconds, c.n),
		}
		c.splitColls[seq] = coll
	}
	if coll.op != op || coll.root != root {
		panic(fmt.Sprintf("cluster: split collective %d diverged: %s root %d vs %s root %d",
			seq, coll.op, coll.root, op, root))
	}
	return coll
}

// startSplit posts this device's part of a split-phase collective and
// returns its handle. post fills in the root's payload(s); it runs under
// the split lock.
func (d *Device) startSplit(op string, root int, post func(*splitColl)) *splitPending {
	c := d.c
	seq := d.splitSeq
	d.splitSeq++
	start := d.Clock().Now()
	c.mu.Lock()
	coll := c.splitGet(seq, op, root)
	if d.rank == root {
		post(coll)
	}
	coll.at[d.rank] = start
	coll.posted++
	c.cond.Broadcast()
	c.mu.Unlock()
	return &splitPending{d: d, seq: seq, op: op, root: root, start: start}
}

// StartBroadcast begins a split-phase broadcast of root's payload to all
// devices (same payload, sequential-send timing — the blocking
// BroadcastBytes schedule). It never blocks; the returned handle's Wait
// delivers the payload and charges the clock.
func (d *Device) StartBroadcast(root int, payload []byte) PendingBytes {
	return d.startSplit(opSplitBroadcast, root, func(coll *splitColl) {
		for q := 0; q < d.c.n; q++ {
			coll.bufs[q] = payload
		}
	})
}

// StartScatter begins a split-phase scatter of payloads[i] from root to
// device i (max-transfer timing — the blocking ScatterBytes schedule).
// payloads is only read on root. It never blocks; the returned handle's
// Wait delivers this device's slice and charges the clock.
func (d *Device) StartScatter(root int, payloads [][]byte) PendingBytes {
	return d.startSplit(opSplitScatter, root, func(coll *splitColl) {
		copy(coll.bufs, payloads)
	})
}

// splitPending implements PendingBytes for the in-process backend.
type splitPending struct {
	d     *Device
	seq   int
	op    string
	root  int
	start timing.Seconds
	done  bool
}

func (p *splitPending) Wait() []byte {
	if p.done {
		panic("cluster: split-phase handle waited twice")
	}
	p.done = true
	d := p.d
	c := d.c
	c.mu.Lock()
	coll := c.splitColls[p.seq]
	for coll.posted < c.n && !c.aborted {
		c.cond.Wait()
	}
	if c.aborted {
		c.mu.Unlock()
		panic(abortRun{})
	}
	// align is the blocking path's barrier point: the latest Start. wire is
	// the blocking collective's charge, from the same shared function, so
	// staleness-0 clocks stay bit-identical.
	align := slices.Max(coll.at)
	sizes := d.sizeTable()
	for dst, buf := range coll.bufs {
		sizes[p.root][dst] = len(buf)
	}
	wire := ScatterTime(c.model, sizes, p.root)
	if p.op == opSplitBroadcast {
		wire = BroadcastTime(c.model, sizes, p.root, c.n-1)
	}
	out := coll.bufs[d.rank]
	if p.op == opSplitBroadcast && d.rank == p.root {
		c.addBytes(p.root, sizes[p.root])
	}
	coll.done++
	if coll.done == c.n {
		delete(c.splitColls, p.seq)
	}
	c.mu.Unlock()
	timing.FinishDeferred(d.Clock(), p.start, align, wire)
	return out
}

// RawAll2All moves buffers exactly like RingAll2All but charges no
// simulated time. Use it only for out-of-band work that does not exist in
// the modeled system — e.g. computing validation metrics, which the paper
// also excludes from per-epoch timings.
func (d *Device) RawAll2All(payloads [][]byte) [][]byte {
	d.c.sync()
	d.postAll(payloads)
	return d.collect()
}

// RawAllGather shares one buffer from every device with every device,
// charging no simulated time (metrics sideband).
func (d *Device) RawAllGather(payload []byte) [][]byte {
	c := d.c
	c.sync()
	c.exchange[d.rank][d.rank] = payload
	c.sync()
	out := make([][]byte, c.n)
	for p := 0; p < c.n; p++ {
		out[p] = c.exchange[p][p]
	}
	c.sync()
	return out
}

// sync is the reusable N-party barrier every collective is built from. It
// panics with abortRun — before or while waiting — once a peer's body has
// failed.
func (c *Cluster) sync() {
	c.mu.Lock()
	gen := c.gen
	if c.arrived++; c.arrived == c.n {
		c.arrived = 0
		c.gen++
		c.cond.Broadcast()
	}
	for gen == c.gen && !c.aborted {
		c.cond.Wait()
	}
	aborted := c.aborted
	c.mu.Unlock()
	if aborted {
		panic(abortRun{})
	}
}

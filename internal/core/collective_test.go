package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// dyadicModel is a cost model whose every transfer time is a small
// multiple of a power of two, so the clock sums of the scripted workload
// are exact and "twice the fresh run" can be asserted bitwise.
func dyadicModel() *timing.CostModel {
	m := *timing.Default()
	m.Bandwidth = 1 << 20
	m.Latency = 1.0 / (1 << 10)
	return &m
}

// reuseScript is conformScript closed by a Barrier: every device ends at
// the same instant, so a second Run on the same runtime starts aligned and
// must add exactly one fresh run's charges to every clock.
func reuseScript(dev Transport) error {
	if err := conformScript(dev); err != nil {
		return err
	}
	dev.Barrier()
	return nil
}

// runWithin fails the test instead of hanging when Run strands a device.
func runWithin(t *testing.T, rt Runtime, body func(Transport) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- rt.Run(7, body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return: a failed device body stranded its peers in a collective")
		return nil
	}
}

// engineOf returns the collective engine behind rt (nil for a runtime that
// is not one).
func engineOf(rt Runtime) *engine {
	switch r := rt.(type) {
	case *engine:
		return r
	case *procRuntime:
		return r.engine
	}
	return nil
}

// TestRunErrorPropagationAndReuse is the Runtime.Run contract every
// registered backend shares: the first failing device body unwinds every
// peer — whatever collective it is blocked in — and Run returns that error;
// the same Runtime then runs again as if fresh (every body executes,
// coordination state starts over, clocks and byte totals carry on); and no
// goroutine outlives Run.
func TestRunErrorPropagationAndReuse(t *testing.T) {
	const parts = 4
	boom := errors.New("device body failed")
	failures := []struct {
		name string
		fail int // the rank whose body returns boom without entering
		rest func(Transport)
	}{
		{"before a blocking collective", 2, func(dev Transport) { dev.Barrier(); dev.Barrier() }},
		{"before a split-phase Wait", 1, func(dev Transport) {
			var payload []byte
			if dev.Rank() == 0 {
				payload = []byte("never completes")
			}
			dev.StartBroadcast(0, payload).Wait()
		}},
		{"on the root of a scatter", parts - 1, func(dev Transport) { dev.ScatterBytes(parts-1, nil) }},
		// The peers' blobs are already on their way to rank 0; the next Run
		// reuses their sequence number and must not find them.
		{"on the reducing rank of an all-reduce", 0, func(dev Transport) { dev.AllReduceSum(cancellingMats(dev.Rank())) }},
	}
	for _, name := range TransportNames() {
		f, err := LookupTransport(name)
		if err != nil {
			t.Fatal(err)
		}
		// Two worker processes on proc-sharded.
		spec := TransportSpec{Parts: parts, Workers: 2, Model: dyadicModel()}
		fresh := f(spec)
		if err := runWithin(t, fresh, reuseScript); err != nil {
			t.Fatalf("%s: fresh run: %v", name, err)
		}
		for _, tc := range failures {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				baseline := goruntime.NumGoroutine()
				rt := f(spec)
				err := runWithin(t, rt, func(dev Transport) error {
					if dev.Rank() == tc.fail {
						return boom
					}
					tc.rest(dev)
					return nil
				})
				if !errors.Is(err, boom) {
					t.Fatalf("Run returned %v, want the failing device's error", err)
				}
				// Reuse after the error: nothing was charged yet, so the
				// next Run must equal a fresh runtime's. Then reuse after a
				// clean run: exactly twice the fresh totals.
				for round := 1; round <= 2; round++ {
					ran := make([]bool, parts)
					err := runWithin(t, rt, func(dev Transport) error {
						err := reuseScript(dev)
						ran[dev.Rank()] = err == nil
						return err
					})
					if err != nil {
						t.Fatalf("reuse run %d: %v", round, err)
					}
					for r, ok := range ran {
						if !ok {
							t.Fatalf("reuse run %d did not run rank %d's body to its end (ran=%v)", round, r, ran)
						}
					}
					k := timing.Seconds(round)
					for r, ck := range rt.Clocks() {
						want := fresh.Clocks()[r]
						if ck.Now() != k*want.Now() {
							t.Errorf("reuse run %d: rank %d clock %v, want %v× a fresh run's %v", round, r, ck.Now(), round, want.Now())
						}
						for cat, spent := range want.Breakdown() {
							if ck.Spent(cat) != k*spent {
								t.Errorf("reuse run %d: rank %d spent %v on %v, want %v× a fresh run's %v", round, r, ck.Spent(cat), cat, round, spent)
							}
						}
					}
					got, want := rt.BytesMoved(), fresh.BytesMoved()
					for s := range want {
						for d := range want[s] {
							if got[s][d] != int64(round)*want[s][d] {
								t.Errorf("reuse run %d: pair (%d,%d) moved %d bytes, want %d× a fresh run's %d", round, s, d, got[s][d], round, want[s][d])
							}
						}
					}
					if e := engineOf(rt); e != nil && (len(e.colls) != 0 || len(e.inbox) != 0) {
						t.Errorf("reuse run %d left %d coordination records and %d undelivered payloads behind — pruning did not restart with the Run", round, len(e.colls), len(e.inbox))
					}
				}
				expectNoNewGoroutines(t, baseline)
			})
		}
	}
	// Between an all-reduce's two phases: rank 0 has reduced and charged, its
	// sums never arrive, and its body fails. Every peer is past the
	// rendezvous, waiting for a parcel — and is unwound all the same.
	t.Run("engine/between the two phases of an all-reduce", func(t *testing.T) {
		baseline := goruntime.NumGoroutine()
		var lossy atomic.Bool // the wire loses everything rank 0 sends
		lossy.Store(true)
		rt := newEngine(TransportSpec{Parts: parts, Model: dyadicModel()}, &tappedDelivery{tap: func(post []parcel) []parcel {
			if lossy.Load() && len(post) > 0 && post[0].src == 0 {
				return nil
			}
			return post
		}})
		var ran atomic.Int32
		err := runWithin(t, rt, func(dev Transport) error {
			dev.AllReduceSum(cancellingMats(dev.Rank()))
			if dev.Rank() == 0 {
				return boom
			}
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, boom) || ran.Load() != 0 {
			t.Fatalf("Run returned %v and %d peers left the all-reduce without rank 0's sums; want rank 0's error and none", err, ran.Load())
		}
		lossy.Store(false)
		if err := runWithin(t, rt, func(dev Transport) error {
			defer ran.Add(1)
			return reuseScript(dev)
		}); err != nil || ran.Load() != parts {
			t.Fatalf("reuse run: %v, %d of %d bodies ran", err, ran.Load(), parts)
		}
		if len(rt.colls) != 0 || len(rt.inbox) != 0 {
			t.Errorf("reuse run left %d coordination records and %d undelivered payloads behind", len(rt.colls), len(rt.inbox))
		}
		expectNoNewGoroutines(t, baseline)
	})
}

// expectNoNewGoroutines gives exiting goroutines a moment, then demands the
// count is back at baseline.
func expectNoNewGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after Run, %d before: Run leaked", n, baseline)
	}
}

// tappedDelivery is the pointer delivery with the test on the wire: tap sees
// every post and returns what travels on — the same post, fewer parcels, or
// altered copies.
type tappedDelivery struct {
	pointerDelivery
	tap func(post []parcel) []parcel
}

func (t *tappedDelivery) send(post []parcel) error {
	return t.pointerDelivery.send(t.tap(post))
}

// cancellingMats is rank's contribution to an all-reduce whose float32 sum
// depends on the order of the additions: 1e8 and −1e8 cancel only if nothing
// small was absorbed in between, so every association of the ranks gives
// different bits.
func cancellingMats(rank int) []*tensor.Matrix {
	terms := []float32{1e8, 1, -1e8, 3e-3, 16777216, 0.5, -16777217, 1e-8}
	a, b := tensor.New(3, 5), tensor.New(1, 7)
	for i := range a.Data {
		a.Data[i] = terms[(rank+i)%len(terms)]
	}
	for i := range b.Data {
		b.Data[i] = terms[(3*rank+i+2)%len(terms)] * float32(i+1)
	}
	return []*tensor.Matrix{a, b}
}

// TestAllReduceMovesTwoBlobsPerPeer: an all-reduce is a reduce at rank 0 and
// a broadcast back — 2(N−1) parcels of one serialized blob each, not one from
// every device to every other.
func TestAllReduceMovesTwoBlobsPerPeer(t *testing.T) {
	const rounds = 3
	blob := int64(len(appendMats(cancellingMats(0))))
	for _, n := range []int{2, 3, 8} {
		var parcels, wireBytes atomic.Int64
		rt := newEngine(TransportSpec{Parts: n}, &tappedDelivery{tap: func(post []parcel) []parcel {
			for _, p := range post {
				parcels.Add(1)
				wireBytes.Add(int64(len(p.payload)))
			}
			return post
		}})
		if err := runWithin(t, rt, func(dev Transport) error {
			for i := 0; i < rounds; i++ {
				dev.AllReduceSum(cancellingMats(dev.Rank()))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := int64(2 * (n - 1))
		if got := parcels.Load(); got != rounds*want {
			t.Errorf("N=%d: %d parcels per all-reduce, want 2(N−1) = %d", n, got/rounds, want)
		}
		if got := wireBytes.Load(); got != rounds*want*blob {
			t.Errorf("N=%d: %d bytes per all-reduce, want 2(N−1)·%d = %d", n, got/rounds, blob, want*blob)
		}
	}
}

// TestAllReduceMatchesReferenceBits: on inputs whose sum depends on the order
// of the additions, with devices arriving at different simulated times, every
// registered transport — and the engine over a delivery that hands rank 0's
// sums over late and out of order — ends with the bits of a plain rank-order
// sum on every device, and with the clocks of a rendezvous at the slowest
// arrival followed by AllReduceTime's charge.
func TestAllReduceMatchesReferenceBits(t *testing.T) {
	const parts, rounds = 5, 2
	model := dyadicModel()
	arrive := func(rank, round int) timing.Seconds { return timing.Seconds(1+(rank+round)%3) / 8 }

	// The reference: each round's inputs summed in rank order, and each
	// device's clock, Comp and Idle after the rounds (every value is dyadic,
	// so the sums are exact in any order).
	want := make([]float32, 0)
	now := make([]timing.Seconds, parts)
	comp := make([]timing.Seconds, parts)
	idle := make([]timing.Seconds, parts)
	for round := 0; round < rounds; round++ {
		sums := cancellingMats(round)
		for r := 1; r < parts; r++ {
			for i, m := range cancellingMats(r + round) {
				sums[i].AddInPlace(m)
			}
		}
		bytes := 0
		for _, m := range sums {
			want = append(want, m.Data...)
			bytes += 4 * len(m.Data)
		}
		var latest timing.Seconds
		for r := range now {
			comp[r] += arrive(r, round)
			latest = max(latest, now[r]+arrive(r, round))
		}
		for r := range now {
			idle[r] += latest - now[r] - arrive(r, round)
			now[r] = latest + cluster.AllReduceTime(model, parts, bytes)
		}
	}

	spec := TransportSpec{Parts: parts, Workers: 2, Model: model}
	runtimes := map[string]Runtime{"engine over a reordering delivery": newEngine(spec, &reorderDelivery{})}
	for _, name := range TransportNames() {
		f, err := LookupTransport(name)
		if err != nil {
			t.Fatal(err)
		}
		runtimes[name] = f(spec)
	}
	for name, rt := range runtimes {
		got := make([][]float32, parts)
		if err := runWithin(t, rt, func(dev Transport) error {
			for round := 0; round < rounds; round++ {
				dev.Clock().Advance(timing.Comp, arrive(dev.Rank(), round))
				ms := cancellingMats(dev.Rank() + round)
				dev.AllReduceSum(ms)
				for _, m := range ms {
					got[dev.Rank()] = append(got[dev.Rank()], m.Data...)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for r, ck := range rt.Clocks() {
			for i := range want {
				if math.Float32bits(got[r][i]) != math.Float32bits(want[i]) {
					t.Errorf("%s: rank %d element %d = %v (%#08x), rank-order sum %v (%#08x)", name, r, i,
						got[r][i], math.Float32bits(got[r][i]), want[i], math.Float32bits(want[i]))
					break
				}
			}
			if ck.Now() != now[r] || ck.Spent(timing.Comp) != comp[r] || ck.Spent(timing.Idle) != idle[r] ||
				ck.Spent(timing.Comm) != now[r]-comp[r]-idle[r] {
				t.Errorf("%s: rank %d clock %v %v, want %v (comp %v, idle %v)", name, r, ck.Now(), ck.Breakdown(), now[r], comp[r], idle[r])
			}
		}
	}
	// The inputs do what they are for: another association, other bits.
	reversed := cancellingMats(parts - 1)
	for r := parts - 2; r >= 0; r-- {
		for i, m := range cancellingMats(r) {
			reversed[i].AddInPlace(m)
		}
	}
	firstRound := want[:len(reversed[0].Data)+len(reversed[1].Data)]
	if fmt.Sprint(append(append([]float32(nil), reversed[0].Data...), reversed[1].Data...)) == fmt.Sprint(firstRound) {
		t.Error("the inputs sum to the same bits in reverse rank order; they do not test the order")
	}
}

// TestAllReduceCorruptBlobFailsTheRun: a damaged blob on its way into rank 0
// and a damaged sum on its way out each fail the run with an error naming the
// decoding rank and the rank whose bytes they were, and strand nobody.
func TestAllReduceCorruptBlobFailsTheRun(t *testing.T) {
	const parts = 4
	for _, tc := range []struct {
		src, dst int
		want     string
	}{
		{2, 0, "rank 0 decoding rank 2's matrices"},
		{0, 3, "rank 3 decoding rank 0's sums"},
	} {
		// One bad link: the payload from src to dst arrives a byte short.
		rt := newEngine(TransportSpec{Parts: parts}, &tappedDelivery{tap: func(post []parcel) []parcel {
			post = append([]parcel(nil), post...)
			for i, p := range post {
				if p.src == tc.src && p.dst == tc.dst {
					post[i].payload = p.payload[:len(p.payload)-1]
				}
			}
			return post
		}})
		err := runWithin(t, rt, func(dev Transport) error {
			dev.AllReduceSum(cancellingMats(dev.Rank()))
			dev.Barrier()
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("corrupt blob %d→%d: Run returned %v, want an error saying %q", tc.src, tc.dst, err, tc.want)
		}
	}
}

// reorderDelivery is the seam's test fake: every payload is copied and
// handed over by a separate goroutine, newest first, so hand-offs happen
// late, out of order and never with the sender's buffer.
type reorderDelivery struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func()
	stopped bool
	done    chan struct{}
	deliver func(parcel)
}

func (r *reorderDelivery) start(deliver func(parcel), _ func(error)) error {
	r.cond = sync.NewCond(&r.mu)
	r.deliver, r.stopped, r.done = deliver, false, make(chan struct{})
	go func() {
		defer close(r.done)
		r.mu.Lock()
		defer r.mu.Unlock()
		for {
			for len(r.queue) == 0 && !r.stopped {
				r.cond.Wait()
			}
			if len(r.queue) == 0 {
				return
			}
			last := len(r.queue) - 1
			handOff := r.queue[last]
			r.queue = r.queue[:last]
			r.mu.Unlock()
			goruntime.Gosched() // let more sends pile up behind this one
			handOff()
			r.mu.Lock()
		}
	}()
	return nil
}

func (r *reorderDelivery) send(post []parcel) error {
	r.mu.Lock()
	for _, p := range post {
		if p.payload != nil {
			p.payload = append([]byte{}, p.payload...)
		}
		r.queue = append(r.queue, func() { r.deliver(p) })
	}
	r.cond.Signal()
	r.mu.Unlock()
	return nil
}

func (r *reorderDelivery) stop(bool, bool) error {
	r.mu.Lock()
	r.stopped = true
	r.cond.Signal()
	r.mu.Unlock()
	<-r.done
	return nil
}

// payloadLog records every payload a device's collectives return, in
// program order, so two runs can be compared byte for byte.
type payloadLog struct {
	Transport
	got [][]byte
}

func (l *payloadLog) keep(bufs ...[]byte) { l.got = append(l.got, bufs...) }

func (l *payloadLog) RingAll2All(p [][]byte) [][]byte {
	out := l.Transport.RingAll2All(p)
	l.keep(out...)
	return out
}

func (l *payloadLog) GatherBytes(root int, p []byte) [][]byte {
	out := l.Transport.GatherBytes(root, p)
	l.keep(out...)
	return out
}

func (l *payloadLog) ScatterBytes(root int, p [][]byte) []byte {
	out := l.Transport.ScatterBytes(root, p)
	l.keep(out)
	return out
}

func (l *payloadLog) BroadcastBytes(root int, p []byte) []byte {
	out := l.Transport.BroadcastBytes(root, p)
	l.keep(out)
	return out
}

func (l *payloadLog) RawAllGather(p []byte) [][]byte {
	out := l.Transport.RawAllGather(p)
	l.keep(out...)
	return out
}

type loggedPending struct {
	l     *payloadLog
	inner PendingCollective
}

func (p loggedPending) Wait() []byte {
	out := p.inner.Wait()
	p.l.keep(out)
	return out
}

func (l *payloadLog) StartBroadcast(root int, p []byte) PendingCollective {
	return loggedPending{l, l.Transport.StartBroadcast(root, p)}
}

func (l *payloadLog) StartScatter(root int, p [][]byte) PendingCollective {
	return loggedPending{l, l.Transport.StartScatter(root, p)}
}

// TestEngineChargesIgnoreDeliveryTiming proves the seam: the engine over a
// delivery that reorders, delays and copies conforms exactly like the
// pointer delivery, and on the scripted workload ends with the same clocks,
// the same payloads and the same byte ledger. Charges come from the
// coordination record alone.
func TestEngineChargesIgnoreDeliveryTiming(t *testing.T) {
	factory := func(dlv func() delivery) RuntimeFactory {
		return func(spec TransportSpec) Runtime { return newEngine(spec, dlv()) }
	}
	pointer := func() delivery { return &pointerDelivery{} }
	reorder := func() delivery { return &reorderDelivery{} }
	for _, parts := range []int{4, 6} {
		for _, v := range ConformTransport(factory(reorder), parts) {
			t.Errorf("parts=%d: %v", parts, v)
		}
		for _, v := range ConformTransportChaos(factory(reorder), parts) {
			t.Errorf("parts=%d chaos: %v", parts, v)
		}
		run := func(dlv func() delivery) (Runtime, [][][]byte) {
			rt := factory(dlv)(TransportSpec{Parts: parts})
			logs := make([][][]byte, parts)
			err := rt.Run(1, func(dev Transport) error {
				l := &payloadLog{Transport: dev}
				defer func() { logs[dev.Rank()] = l.got }()
				return conformScript(l)
			})
			if err != nil {
				t.Fatalf("parts=%d: %v", parts, err)
			}
			return rt, logs
		}
		want, wantLogs := run(pointer)
		got, gotLogs := run(reorder)
		label := fmt.Sprintf("parts=%d", parts)
		for r := 0; r < parts; r++ {
			if g, w := got.Clocks()[r], want.Clocks()[r]; g.Now() != w.Now() || fmt.Sprint(g.Breakdown()) != fmt.Sprint(w.Breakdown()) {
				t.Errorf("%s: rank %d clock %v %v, pointer delivery %v %v", label, r, g.Now(), g.Breakdown(), w.Now(), w.Breakdown())
			}
			if len(gotLogs[r]) != len(wantLogs[r]) {
				t.Fatalf("%s: rank %d received %d payloads, pointer delivery %d", label, r, len(gotLogs[r]), len(wantLogs[r]))
			}
			for i := range wantLogs[r] {
				if !bytes.Equal(gotLogs[r][i], wantLogs[r][i]) {
					t.Errorf("%s: rank %d payload %d differs from the pointer delivery's", label, r, i)
				}
			}
		}
		if g, w := fmt.Sprint(got.BytesMoved()), fmt.Sprint(want.BytesMoved()); g != w {
			t.Errorf("%s: byte ledger %s, pointer delivery %s", label, g, w)
		}
	}
}

func TestRunAllRanks(t *testing.T) {
	var mask atomic.Int64
	err := newInprocess(TransportSpec{Parts: 5}).Run(1, func(d Transport) error {
		mask.Add(1 << d.Rank())
		if d.Size() != 5 {
			return fmt.Errorf("size %d", d.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mask.Load() != 31 {
		t.Fatalf("ranks mask %b", mask.Load())
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := newInprocess(TransportSpec{Parts: 3}).Run(1, func(d Transport) error {
		if d.Rank() == 1 {
			return boom
		}
		d.Barrier() // unwound when rank 1 fails, never completed
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

// TestAllReduceChargeUnderSkewedLinks: under a non-uniform PairTheta every
// rank still charges AllReduceTime's one schedule value, the slowest pair
// of each step.
func TestAllReduceChargeUnderSkewedLinks(t *testing.T) {
	const n, rows = 6, 64
	model := dyadicModel()
	skewed := *model
	skewed.PairTheta = make([][]float64, n)
	for s := range skewed.PairTheta {
		skewed.PairTheta[s] = make([]float64, n)
		for d := range skewed.PairTheta[s] {
			skewed.PairTheta[s][d] = float64(1+(3*s+d)%5) / model.Bandwidth
		}
	}
	rt := newInprocess(TransportSpec{Parts: n, Model: &skewed})
	err := rt.Run(1, func(d Transport) error {
		d.AllReduceSum([]*tensor.Matrix{tensor.New(rows, rows)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.AllReduceTime(&skewed, n, 4*rows*rows)
	if uniform := cluster.AllReduceTime(model, n, 4*rows*rows); want <= uniform {
		t.Errorf("slower links charged %v, not above the uniform model's %v", want, uniform)
	}
	for r, cl := range rt.Clocks() {
		if got := cl.Spent(timing.Comm); got != want {
			t.Errorf("rank %d charged %v under a skewed PairTheta, want %v on every rank", r, got, want)
		}
	}
}

func TestNewPanicsOnZeroDevices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newInprocess(TransportSpec{})
}

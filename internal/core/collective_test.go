package core

import (
	"bytes"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

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

// engineOf returns the collective engine behind rt (nil for the reference).
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
	}
	for _, name := range TransportNames() {
		f, err := LookupTransport(name)
		if err != nil {
			t.Fatal(err)
		}
		// Two workers: worker processes on proc-sharded, and on
		// sharded-async fewer execution slots than devices.
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
				deadline := time.Now().Add(5 * time.Second)
				for goruntime.NumGoroutine() > baseline && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := goruntime.NumGoroutine(); n > baseline {
					t.Errorf("%d goroutines after Run, %d before: Run leaked", n, baseline)
				}
			})
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

func (r *reorderDelivery) stop(bool) error {
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
// pointer delivery, and on the scripted workload — lockstep and with the
// staleness relaxations on — ends with the same clocks, the same payloads
// and the same byte ledger. Charges come from the coordination record
// alone.
func TestEngineChargesIgnoreDeliveryTiming(t *testing.T) {
	factory := func(stale int, dlv func() delivery) RuntimeFactory {
		return func(spec TransportSpec) Runtime { return newEngine(spec, 2, stale, dlv()) }
	}
	pointer := func() delivery { return &pointerDelivery{} }
	reorder := func() delivery { return &reorderDelivery{} }
	for _, parts := range []int{4, 6} {
		for _, v := range ConformTransport(factory(0, reorder), parts) {
			t.Errorf("parts=%d: %v", parts, v)
		}
		for _, v := range ConformTransportChaos(factory(0, reorder), parts) {
			t.Errorf("parts=%d chaos: %v", parts, v)
		}
		for _, stale := range []int{0, 8} {
			run := func(dlv func() delivery) (Runtime, [][][]byte) {
				rt := factory(stale, dlv)(TransportSpec{Parts: parts})
				logs := make([][][]byte, parts)
				err := rt.Run(1, func(dev Transport) error {
					l := &payloadLog{Transport: dev}
					defer func() { logs[dev.Rank()] = l.got }()
					return conformScript(l)
				})
				if err != nil {
					t.Fatalf("parts=%d staleness=%d: %v", parts, stale, err)
				}
				return rt, logs
			}
			want, wantLogs := run(pointer)
			got, gotLogs := run(reorder)
			label := fmt.Sprintf("parts=%d staleness=%d", parts, stale)
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
}

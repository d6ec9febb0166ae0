package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/synthetic"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// ringPayload builds the deterministic payload src ships to dst in round
// r — distinct content and length per edge so a misrouted or truncated
// frame cannot pass the receive-side checks.
func ringPayload(src, dst, r int) []byte {
	p := []byte(fmt.Sprintf("r%d:%d->%d:", r, src, dst))
	return append(p, bytes.Repeat([]byte{byte(16*src + dst)}, (src+1)*(dst+2)+r)...)
}

// TestProcDefaultWorkers pins what Workers means at its zero value: two
// worker processes, however many devices there are, which carry every
// frame of a ring round.
func TestProcDefaultWorkers(t *testing.T) {
	const n = 4
	shutIdleFleets()
	rt := newProcRuntime(TransportSpec{Parts: n}).(*procRuntime)
	err := rt.Run(1, func(tr Transport) error {
		payloads := make([][]byte, n)
		for dst := range payloads {
			if dst != tr.Rank() {
				payloads[dst] = ringPayload(tr.Rank(), dst, 0)
			}
		}
		tr.RingAll2All(payloads)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wf := idleFleet(2)
	if wf == nil {
		t.Fatalf("Workers 0 on %d parts handed back no two-worker fleet", n)
	}
	if pids := wf.pool.PIDs(); len(pids) != 2 {
		t.Fatalf("Workers 0 on %d parts ran %d worker processes, want 2", n, len(pids))
	}
	stats := rt.WireStats()
	if stats.SentFrames != n*(n-1) {
		t.Errorf("%d frames crossed the fleet, want %d", stats.SentFrames, n*(n-1))
	}
	checkWireConservation(t, stats)
}

// TestProcWireByteAccounting runs a ring-only workload on the
// proc-sharded backend and reconciles its byte ledgers against the real
// framed traffic: every payload byte must have crossed a socket inside a
// frame, and the pool's counters and the backend's BytesMoved ledger must
// agree exactly.
func TestProcWireByteAccounting(t *testing.T) {
	const n, workers, rounds = 4, 2, 3
	rt := newProcRuntime(TransportSpec{Parts: n, Workers: workers}).(*procRuntime)

	err := rt.Run(1, func(tr Transport) error {
		for r := 0; r < rounds; r++ {
			payloads := make([][]byte, n)
			for dst := 0; dst < n; dst++ {
				if dst != tr.Rank() {
					payloads[dst] = ringPayload(tr.Rank(), dst, r)
				}
			}
			got := tr.RingAll2All(payloads)
			for src := 0; src < n; src++ {
				if src == tr.Rank() {
					continue
				}
				if want := ringPayload(src, tr.Rank(), r); !bytes.Equal(got[src], want) {
					return fmt.Errorf("rank %d round %d: payload from %d corrupted in flight", tr.Rank(), r, src)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Expected traffic, recomputed independently of the backend: a frame
	// goes to the worker of its source rank's shard and straight back.
	var frames, payloadBytes, sentBytes uint64
	for r := 0; r < rounds; r++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				l := len(ringPayload(src, dst, r))
				frames++
				payloadBytes += uint64(l)
				sentBytes += uint64(wire.FrameSize(l))
			}
		}
	}

	stats := rt.WireStats()
	if stats.SentFrames != frames || stats.DeliveredFrames != frames {
		t.Errorf("frames: sent %d delivered %d, want %d each", stats.SentFrames, stats.DeliveredFrames, frames)
	}
	if stats.SentBytes != sentBytes {
		t.Errorf("SentBytes = %d, want %d (payload %d + %d frames × %d overhead)",
			stats.SentBytes, sentBytes, payloadBytes, frames, wire.FrameOverhead)
	}
	if stats.DeliveredBytes != stats.SentBytes {
		t.Errorf("DeliveredBytes = %d, want SentBytes = %d", stats.DeliveredBytes, stats.SentBytes)
	}
	checkWireConservation(t, stats)

	// The backend's payload ledger must equal the frames' payload bytes:
	// framed traffic minus framing overhead, nothing moved in memory only.
	var moved uint64
	for _, row := range rt.BytesMoved() {
		for _, v := range row {
			moved += uint64(v)
		}
	}
	if moved != payloadBytes {
		t.Errorf("BytesMoved total = %d, want %d payload bytes", moved, payloadBytes)
	}
	if stats.SentBytes != moved+frames*wire.FrameOverhead {
		t.Errorf("framed bytes %d != payload ledger %d + framing %d", stats.SentBytes, moved, frames*wire.FrameOverhead)
	}
}

// checkWireConservation asserts the conservation law that holds for any
// completed run: every frame sent came back, byte for byte.
func checkWireConservation(t *testing.T, stats wire.PoolStats) {
	t.Helper()
	if stats.DeliveredFrames != stats.SentFrames || stats.DeliveredBytes != stats.SentBytes {
		t.Errorf("delivered %d frames / %d bytes, sent %d / %d", stats.DeliveredFrames, stats.DeliveredBytes, stats.SentFrames, stats.SentBytes)
	}
}

// TestProcWireStatsInvariants drives every collective in the Transport
// contract through the worker fleet and checks the conservation laws on
// the aggregate — no op may move a payload outside the framed wire path
// or leave a frame undelivered.
func TestProcWireStatsInvariants(t *testing.T) {
	const n, workers = 5, 3
	rt := newProcRuntime(TransportSpec{Parts: n, Workers: workers}).(*procRuntime)

	err := rt.Run(2, func(tr Transport) error {
		rank := tr.Rank()
		tr.Barrier()
		payloads := make([][]byte, n)
		for dst := 0; dst < n; dst++ {
			if dst != rank {
				payloads[dst] = ringPayload(rank, dst, 0)
			}
		}
		tr.RingAll2All(payloads)

		m := tensor.New(2, 3)
		m.FillUniform(tr.Rand(), -1, 1)
		tr.AllReduceSum([]*tensor.Matrix{m})

		tr.GatherBytes(1, []byte(fmt.Sprintf("gather from %d", rank)))
		var scatter [][]byte
		if rank == 2 {
			scatter = make([][]byte, n)
			for i := range scatter {
				scatter[i] = ringPayload(2, i, 7)
			}
		}
		tr.ScatterBytes(2, scatter)
		tr.BroadcastBytes(0, []byte("broadcast payload"))

		pending := tr.StartBroadcast(n-1, []byte("split-phase payload"))
		tr.Clock().Advance(0, 0) // any compute would overlap here
		pending.Wait()

		tr.RawAll2All(payloads)
		tr.RawAllGather([]byte{byte(rank)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	stats := rt.WireStats()
	if stats.SentFrames == 0 {
		t.Fatal("no frames crossed the wire — collectives fell back to in-memory delivery")
	}
	if stats.DeliveredFrames != stats.SentFrames {
		t.Errorf("delivered %d of %d sent frames", stats.DeliveredFrames, stats.SentFrames)
	}
	if stats.DeliveredBytes != stats.SentBytes {
		t.Errorf("DeliveredBytes = %d, want SentBytes = %d", stats.DeliveredBytes, stats.SentBytes)
	}
	checkWireConservation(t, stats)
}

// TestProcTrainingSerializesPayloads trains AdaQP on the proc-sharded
// backend with the runtime captured through the factory seam, then checks
// that the run's collective traffic genuinely crossed the worker fleet as
// framed bytes and that the loss curve is bit-identical to the in-process
// reference.
func TestProcTrainingSerializesPayloads(t *testing.T) {
	ds := synthetic.MustLoad("tiny", 1)
	cfg := tinyConfig(CodecAdaptive)
	cfg.Epochs = 6
	cfg.EvalEvery = 3

	ref, err := trainBlock(ds, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var captured *procRuntime
	procCfg := cfg
	procCfg.transportFactory = func(spec TransportSpec) Runtime {
		spec.Workers = 2
		captured = newProcRuntime(spec).(*procRuntime)
		return captured
	}
	got, err := trainBlock(ds, 3, procCfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Epochs) != len(ref.Epochs) {
		t.Fatalf("epoch count %d vs %d", len(got.Epochs), len(ref.Epochs))
	}
	for i := range ref.Epochs {
		if got.Epochs[i].Loss != ref.Epochs[i].Loss {
			t.Errorf("epoch %d loss %.9f != in-process reference %.9f (must be bit-identical)",
				i, got.Epochs[i].Loss, ref.Epochs[i].Loss)
		}
	}
	if got.FinalTest != ref.FinalTest {
		t.Errorf("final test accuracy %.6f != reference %.6f", got.FinalTest, ref.FinalTest)
	}

	stats := captured.WireStats()
	if stats.SentFrames == 0 || stats.SentBytes == 0 {
		t.Fatal("training moved no framed bytes — codec payloads were not serialized over the wire")
	}
	if stats.DeliveredBytes != stats.SentBytes {
		t.Errorf("DeliveredBytes = %d, want SentBytes = %d", stats.DeliveredBytes, stats.SentBytes)
	}
	checkWireConservation(t, stats)

	// Every ledgered payload byte is a non-self delivery, so it must have
	// crossed the wire inside a frame: the framed traffic minus framing
	// overhead bounds the BytesMoved ledger from above (the surplus is
	// un-ledgered traffic — allreduce blobs, scatter payloads, raw-op
	// metrics sideband).
	var moved uint64
	for _, row := range captured.BytesMoved() {
		for _, v := range row {
			moved += uint64(v)
		}
	}
	if moved == 0 {
		t.Fatal("BytesMoved ledger empty after training")
	}
	wirePayload := stats.SentBytes - stats.SentFrames*wire.FrameOverhead
	if wirePayload < moved {
		t.Errorf("only %d payload bytes crossed the wire but the ledger claims %d moved — some payloads skipped serialization",
			wirePayload, moved)
	}
	t.Logf("training moved %d payload bytes in %d frames (%d framed bytes)",
		moved, stats.SentFrames, stats.SentBytes)
}

// stopRecorder is a runtime's fleet with the outcome of each stop kept,
// which Run reports only when no body failed.
type stopRecorder struct {
	*procFleet
	stopErrs []error
}

func (r *stopRecorder) stop(failed, broken bool) error {
	err := r.procFleet.stop(failed, broken)
	r.stopErrs = append(r.stopErrs, err)
	return err
}

// TestProcAbortReapsWorkers kills a run from inside a device body and
// checks the abort path: the error surfaces, the worker fleet is shut down
// gracefully — every worker reads the half-close's EOF and exits 0, none
// is killed — and the same runtime can immediately start a fresh,
// fully-functional fleet.
func TestProcAbortReapsWorkers(t *testing.T) {
	const n, workers = 3, 2
	rt := newProcRuntime(TransportSpec{Parts: n, Workers: workers}).(*procRuntime)
	rec := &stopRecorder{procFleet: rt.s}
	rt.engine.dlv = rec

	boom := errors.New("device body failed")
	err := rt.Run(3, func(tr Transport) error {
		tr.Barrier()
		if tr.Rank() == 0 {
			return boom
		}
		// Peers head into another collective; the abort must release them
		// rather than deadlock.
		tr.Barrier()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want the device body's error", err)
	}
	if rt.s.fleet != nil {
		t.Fatal("aborted run left the worker pool attached")
	}
	// A body abort (the cancel path) still shuts the fleet down
	// gracefully; only a broken wire kills it.
	if len(rec.stopErrs) != 1 || rec.stopErrs[0] != nil {
		t.Fatalf("the aborted run's shutdown: %v, want one graceful shutdown", rec.stopErrs)
	}
	checkWireConservation(t, rt.WireStats())

	// The next Run on the same runtime must bring up a fresh fleet.
	err = rt.Run(4, func(tr Transport) error {
		got := tr.BroadcastBytes(0, []byte("recovered"))
		if string(got) != "recovered" {
			return fmt.Errorf("rank %d: bad broadcast payload %q", tr.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run after abort: %v", err)
	}
	stats := rt.WireStats()
	if stats.SentFrames == 0 {
		t.Fatal("recovery run moved no frames")
	}
	checkWireConservation(t, stats)
}

// ringBody is rounds RingAll2All rounds of ringPayload over n ranks, each
// received payload checked.
func ringBody(n, rounds int) func(Transport) error {
	return func(tr Transport) error {
		for r := 0; r < rounds; r++ {
			payloads := make([][]byte, n)
			for dst := range payloads {
				if dst != tr.Rank() {
					payloads[dst] = ringPayload(tr.Rank(), dst, r)
				}
			}
			got := tr.RingAll2All(payloads)
			for src := range got {
				if src != tr.Rank() && !bytes.Equal(got[src], ringPayload(src, tr.Rank(), r)) {
					return fmt.Errorf("rank %d round %d: payload from %d corrupted in flight", tr.Rank(), r, src)
				}
			}
		}
		return nil
	}
}

// idleFleet returns the fleet of workers workers waiting for a Run, if any.
func idleFleet(workers int) *warmFleet {
	idleFleets.Lock()
	defer idleFleets.Unlock()
	return idleFleets.byWorkers[workers]
}

// shutIdleFleets shuts every idle fleet down now, as its linger would, so
// a test starts with no fleet handed back by an earlier one.
func shutIdleFleets() {
	idleFleets.Lock()
	var idle []*warmFleet
	for _, wf := range idleFleets.byWorkers {
		wf.linger.Stop()
		idle = append(idle, wf)
	}
	clear(idleFleets.byWorkers)
	idleFleets.Unlock()
	for _, wf := range idle {
		wf.pool.Shutdown()
	}
}

// TestProcFleetOutlivesRun: back-to-back Runs on two runtimes share one
// fleet — the second spawns nothing — and each runtime's WireStats holds
// its own Run's traffic alone, every frame sent delivered.
func TestProcFleetOutlivesRun(t *testing.T) {
	const n, workers = 4, 2
	shutIdleFleets()
	var pools []*wire.Pool
	for i := range 2 {
		rt := newProcRuntime(TransportSpec{Parts: n, Workers: workers}).(*procRuntime)
		if err := rt.Run(uint64(i), ringBody(n, i+1)); err != nil {
			t.Fatal(err)
		}
		wf := idleFleet(workers)
		if wf == nil {
			t.Fatalf("run %d handed no fleet back", i)
		}
		pools = append(pools, wf.pool)
		want := wire.PoolStats{SentFrames: uint64((i + 1) * n * (n - 1))}
		for r := range i + 1 {
			for src := range n {
				for dst := range n {
					if src != dst {
						want.SentBytes += uint64(wire.FrameSize(len(ringPayload(src, dst, r))))
					}
				}
			}
		}
		want.DeliveredFrames, want.DeliveredBytes = want.SentFrames, want.SentBytes
		if stats := rt.WireStats(); stats != want {
			t.Errorf("run %d: its runtime counts %+v, want its own Run's %+v", i, stats, want)
		}
	}
	if pools[0] != pools[1] {
		t.Errorf("the second Run spawned workers %v; the first Run's %v were idle", pools[1].PIDs(), pools[0].PIDs())
	}
}

// TestProcIdleWorkerDeath: a worker SIGKILLed while its fleet is idle gets
// the fleet out of the idle set, and the next Run spawns a fresh fleet and
// trains bit-identically to in-process.
func TestProcIdleWorkerDeath(t *testing.T) {
	const workers = 2
	shutIdleFleets()
	ds := synthetic.MustLoad("tiny", 1)
	cfg := tinyConfig(CodecAdaptive)
	cfg.Epochs = 4
	cfg.EvalEvery = 2
	ref, err := trainBlock(ds, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	procCfg := cfg
	procCfg.Transport = TransportProcSharded
	procCfg.TransportWorkers = workers
	if _, err := trainBlock(ds, 3, procCfg); err != nil {
		t.Fatal(err)
	}
	dead := idleFleet(workers)
	if dead == nil {
		t.Fatal("healthy run handed no fleet back")
	}
	victim, err := os.FindProcess(dead.pool.PIDs()[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Kill(); err != nil {
		t.Fatal(err)
	}
	// Well inside the linger, which would retire the fleet anyway.
	for deadline := time.Now().Add(fleetLinger / 2); idleFleet(workers) == dead; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a fleet whose worker died is still idle")
		}
	}
	got, err := trainBlock(ds, 3, procCfg)
	if err != nil {
		t.Fatalf("run after an idle worker's death: %v", err)
	}
	for i := range ref.Epochs {
		if got.Epochs[i].Loss != ref.Epochs[i].Loss {
			t.Errorf("epoch %d loss %v != in-process %v", i, got.Epochs[i].Loss, ref.Epochs[i].Loss)
		}
	}
	if got.FinalTest != ref.FinalTest || got.WallClock != ref.WallClock {
		t.Errorf("final test %v, wall-clock %v; in-process %v, %v", got.FinalTest, got.WallClock, ref.FinalTest, ref.WallClock)
	}
	if fresh := idleFleet(workers); fresh == nil || fresh == dead {
		t.Errorf("the run after the death handed back %v, want a fresh fleet", fresh)
	}
}

// TestProcFailedRunKeepsNoFleet: a Run whose body fails, or whose wire
// breaks, never hands its fleet back — not even one it took warm.
func TestProcFailedRunKeepsNoFleet(t *testing.T) {
	const n, workers = 3, 2
	boom := errors.New("device body failed")
	for _, tc := range []struct {
		name string
		body func(rt *procRuntime) func(Transport) error
	}{
		{"body error", func(*procRuntime) func(Transport) error {
			return func(tr Transport) error {
				tr.Barrier()
				if tr.Rank() == 1 {
					return boom
				}
				tr.Barrier()
				return nil
			}
		}},
		{"broken wire", func(rt *procRuntime) func(Transport) error {
			return func(tr Transport) error {
				if tr.Rank() == 0 {
					if p, err := os.FindProcess(rt.s.fleet.pool.PIDs()[0]); err == nil {
						p.Kill()
					}
				}
				return ringBody(n, 1000)(tr)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shutIdleFleets()
			rt := newProcRuntime(TransportSpec{Parts: n, Workers: workers}).(*procRuntime)
			if err := rt.Run(1, ringBody(n, 1)); err != nil {
				t.Fatal(err)
			}
			if idleFleet(workers) == nil {
				t.Fatal("healthy run handed no fleet back")
			}
			if err := rt.Run(2, tc.body(rt)); err == nil {
				t.Fatal("the failing Run returned nil")
			}
			if wf := idleFleet(workers); wf != nil {
				t.Errorf("the failed Run handed back fleet %v", wf.pool.PIDs())
			}
		})
	}
}

// TestProcExchangeSteadyStateAllocs pins the pool balance on a warm fleet:
// a RingAll2All of pooled payloads allocates on proc-sharded what it does
// in-process plus one copy per delivered frame and one frame list per post,
// n(n−1) + n per round. Each copy has its pool size class's capacity, so
// the receiver files it where the sender's next GetBuf looks; a copy that
// misses the class makes every GetBuf miss too, two allocations per frame.
func TestProcExchangeSteadyStateAllocs(t *testing.T) {
	const n, size, warm, rounds = 4, 9 << 10, 20, 50
	shutIdleFleets()
	perRound := func(f RuntimeFactory) float64 {
		rt := f(TransportSpec{Parts: n, Workers: 2})
		pool := NewArena(n)
		var before, after goruntime.MemStats
		err := rt.Run(1, func(tr Transport) error {
			env := &ExchangeEnv{Pool: pool}
			fill := make([]byte, size)
			round := func(r int) error {
				fill[size-1] = byte(r)
				payloads := env.payloads(n)
				for dst := range payloads {
					if dst != tr.Rank() {
						payloads[dst] = append(pool.GetBuf(size), fill...)
					}
				}
				got := tr.RingAll2All(payloads)
				for src, p := range got {
					if src != tr.Rank() && (len(p) != size || p[size-1] != byte(r)) {
						return fmt.Errorf("rank %d round %d: bad payload from %d", tr.Rank(), r, src)
					}
				}
				pool.ReleaseAll(got)
				return nil
			}
			for r := range warm {
				if err := round(r); err != nil {
					return err
				}
			}
			tr.Barrier()
			if tr.Rank() == 0 {
				goruntime.ReadMemStats(&before)
			}
			tr.Barrier()
			for r := range rounds {
				if err := round(r); err != nil {
					return err
				}
			}
			tr.Barrier()
			if tr.Rank() == 0 {
				goruntime.ReadMemStats(&after)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.Mallocs-before.Mallocs) / rounds
	}
	inproc := perRound(newInprocess)
	proc := perRound(newProcRuntime)
	t.Logf("allocations per round: inprocess %.1f, proc-sharded %.1f", inproc, proc)
	if frames := n * (n - 1); !raceEnabled && proc-inproc >= float64(2*frames) {
		t.Errorf("proc-sharded allocates %.1f times per round against in-process's %.1f plus %d copies and %d posts: the senders' GetBuf misses", proc, inproc, frames, n)
	}
}

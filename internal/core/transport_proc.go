package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// TransportProcSharded is the multi-process runtime: device bodies (and
// their simulated clocks) run in the parent process, but every collective
// payload is serialized into a length-prefixed frame and routed through a
// fleet of worker OS processes over Unix-domain socket pairs before its
// receiver may consume it. The fleet is a star: rank r's outgoing frames go
// to worker r mod W, which sends them straight back to the parent, and
// workers never talk to each other — so codec wire formats, not pointers,
// are what devices exchange, and byte accounting can be checked against
// real framed bytes.
// Everything a device ships in one collective — its post — enters the fleet
// as one vectored write; package wire documents the data path behind it.
//
// Process model: the backend re-executes its own binary (wire.MaybeWorker
// is the worker entry point, armed by an environment variable) into a
// fleet of workers, each born holding its end of a socket pair with the
// parent, so a Run creates nothing on the filesystem. Workers are echoes
// and hold no run state, so a fleet outlives the Run that spawned it: a Run
// that ends healthy hands the fleet back as it is — every collective
// receives each parcel it sent before it returns, so once every body has
// returned nil nothing of the Run is in flight — and the next Run with the
// same worker count, from any runtime in the process, takes it instead of
// spawning one. At most one fleet per worker count waits idle, for
// fleetLinger, before it is shut down. A Run whose body failed or was
// canceled shuts its fleet down gracefully (a half-close: each worker
// echoes what it holds and exits), and a broken wire kills it; a worker
// that dies while its fleet is idle gets the fleet killed, never handed
// out.
// TransportSpec.Workers is the worker process count (default 2, clamped to
// the device count).
//
// Time model: the engine in collective.go, as on inprocess — every
// collective's coordination record (arrival clocks, payload sizes) stays in
// the parent, so Idle/Comm charges are bit-identical to inprocess even
// though payload delivery crosses the kernel.
const TransportProcSharded = "proc-sharded"

// fleetLinger is how long a fleet handed back by a healthy Run waits for
// the next one before it is shut down: long enough to bridge the gaps
// between a caller's back-to-back Runs, short enough that a process done
// with proc-sharded is soon rid of its workers.
const fleetLinger = 2 * time.Second

func init() {
	RegisterTransport(TransportProcSharded, newProcRuntime)
}

// newProcRuntime builds the engine with the worker fleet as its delivery.
func newProcRuntime(spec TransportSpec) Runtime {
	n := spec.Parts
	if n >= wire.ParentID {
		panic(fmt.Sprintf("core: proc-sharded supports at most %d devices, got %d", wire.ParentID-1, n))
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = 2
	}
	fleet := &procFleet{workers: min(workers, n)}
	return &procRuntime{engine: newEngine(spec, fleet), s: fleet}
}

// procRuntime is the engine plus access to its fleet's wire accounting.
type procRuntime struct {
	*engine
	s *procFleet
}

// WireStats reports the framed-byte accounting accumulated over every Run
// this runtime has executed (the pool's counters; see wire.PoolStats).
// Each Run contributes what its fleet counted while the Run held it, up to
// the hand-back after a healthy Run or the graceful shutdown after a
// failed body, so a completed Run delivered every frame it sent. A broken
// fleet's Run contributes nothing.
func (r *procRuntime) WireStats() wire.PoolStats {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return r.s.stats
}

// procFleet is the frame delivery: a worker fleet held for the length of
// a Run, every payload a wire.Frame whose delivered copy the receiver owns
// outright.
type procFleet struct {
	workers int

	fleet *warmFleet     // set between start and stop
	taken wire.PoolStats // the fleet's counts when the Run took it

	mu    sync.Mutex
	stats wire.PoolStats // accumulated across Runs
}

// start takes the idle fleet of this worker count, or spawns one.
func (f *procFleet) start(deliver func(parcel), fail func(error)) error {
	onData := func(fr wire.Frame) {
		// The frame's bytes are the pool reader's until this returns. The
		// copy gets its arena size class's capacity (a nil arena's GetBuf),
		// so the receiver's arena files it where a sender's GetBuf looks.
		payload := append((*Arena)(nil).GetBuf(len(fr.Payload)), fr.Payload...)
		deliver(parcel{frameKey{int(fr.Seq), int(fr.Src), int(fr.Dst)}, payload})
	}
	wf, err := acquireFleet(f.workers, onData, fail)
	if err != nil {
		return err
	}
	f.fleet = wf
	f.taken = wf.pool.Stats()
	return nil
}

// send ships one post into the fleet as one write, to worker src mod W.
func (f *procFleet) send(post []parcel) error {
	frames := make([]wire.Frame, len(post))
	for i, p := range post {
		frames[i] = wire.Frame{
			Op:      wire.OpData,
			Seq:     uint32(p.seq),
			Src:     uint16(p.src),
			Dst:     uint16(p.dst),
			Payload: p.payload,
		}
	}
	return f.fleet.pool.SendPost(frames)
}

// stop ends the Run's hold on the fleet. A healthy Run's fleet goes back
// for the next Run; a failed body's is shut down gracefully; a broken
// wire's is killed outright.
func (f *procFleet) stop(failed, broken bool) error {
	wf := f.fleet
	f.fleet = nil
	var end wire.PoolStats
	var err error
	switch {
	case broken:
		wf.pool.Kill()
		return nil
	case failed:
		end, err = wf.pool.Shutdown()
	default:
		// Read before the hand-back: the next Run may take the fleet at once.
		end = wf.pool.Stats()
		wf.release()
	}
	f.mu.Lock()
	f.stats.Add(end.Sub(f.taken))
	f.mu.Unlock()
	return err
}

// warmFleet is one worker fleet and the Run holding it, if any.
type warmFleet struct {
	workers int
	pool    *wire.Pool
	onData  atomic.Pointer[func(wire.Frame)] // the holding Run's; nil while idle

	// Guarded by idleFleets.
	fail   func(error) // the holding Run's; nil while idle
	broken bool        // a worker or socket died: never handed out again
	linger *time.Timer // while idle: shuts the fleet down
}

// idleFleets holds the fleets handed back by healthy Runs, at most one per
// worker count, and guards every warmFleet's Run-holding state.
var idleFleets = struct {
	sync.Mutex
	byWorkers map[int]*warmFleet
}{byWorkers: map[int]*warmFleet{}}

// acquireFleet hands a Run the idle fleet of workers workers, or spawns
// one, with the Run's callbacks installed.
func acquireFleet(workers int, onData func(wire.Frame), fail func(error)) (*warmFleet, error) {
	idleFleets.Lock()
	wf := idleFleets.byWorkers[workers]
	if wf != nil {
		wf.unidle()
		wf.hold(onData, fail)
	}
	idleFleets.Unlock()
	if wf != nil {
		return wf, nil
	}
	wf = &warmFleet{workers: workers}
	wf.hold(onData, fail)
	pool, err := wire.StartPool("", workers, wf.deliver, wf.onError)
	if err != nil {
		return nil, err
	}
	wf.pool = pool
	return wf, nil
}

// unidle takes the fleet out of the idle set, if it waits there, and
// reports whether it did. The caller holds idleFleets.
func (wf *warmFleet) unidle() bool {
	if idleFleets.byWorkers[wf.workers] != wf {
		return false
	}
	delete(idleFleets.byWorkers, wf.workers)
	wf.linger.Stop()
	return true
}

// hold installs a Run's callbacks (under idleFleets, or before the pool
// exists).
func (wf *warmFleet) hold(onData func(wire.Frame), fail func(error)) {
	wf.onData.Store(&onData)
	wf.fail = fail
}

// deliver passes a delivered frame to the holding Run. A fleet handed back
// has nothing in flight while idle, so a frame then is dropped.
func (wf *warmFleet) deliver(fr wire.Frame) {
	if onData := wf.onData.Load(); onData != nil {
		(*onData)(fr)
	}
}

// onError marks the fleet broken and tells the holding Run; an idle fleet
// that breaks leaves the idle set and is killed.
func (wf *warmFleet) onError(err error) {
	idleFleets.Lock()
	wf.broken = true
	fail := wf.fail
	idle := wf.unidle()
	idleFleets.Unlock()
	if fail != nil {
		fail(err)
	}
	if idle {
		wf.pool.Kill()
	}
}

// release hands a healthy Run's fleet back: it waits idle for the next Run
// of its worker count unless a fleet of that count already waits (a
// surplus fleet is shut down) or it broke during the Run (killed).
func (wf *warmFleet) release() {
	idleFleets.Lock()
	wf.onData.Store(nil)
	wf.fail = nil
	broken := wf.broken
	keep := !broken && idleFleets.byWorkers[wf.workers] == nil
	if keep {
		idleFleets.byWorkers[wf.workers] = wf
		wf.linger = time.AfterFunc(fleetLinger, wf.expire)
	}
	idleFleets.Unlock()
	switch {
	case broken:
		wf.pool.Kill()
	case !keep:
		wf.pool.Shutdown()
	}
}

// expire shuts the fleet down if it is still idle when its linger ends.
func (wf *warmFleet) expire() {
	idleFleets.Lock()
	idle := wf.unidle()
	idleFleets.Unlock()
	if idle {
		wf.pool.Shutdown()
	}
}

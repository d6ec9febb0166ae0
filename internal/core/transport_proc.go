package core

import (
	"fmt"
	"sync"

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
// is the worker entry point, armed by an environment variable) once per
// Run, each worker born holding its end of a socket pair with the parent,
// so a Run creates nothing on the filesystem. It reaps the fleet before
// Run returns — gracefully via a shutdown/stats handshake when the run
// ends or is canceled, by kill when the wire itself broke.
// TransportSpec.Workers is the worker process count (default 2, clamped to
// the device count).
//
// Time model: the engine in collective.go, as on inprocess — every
// collective's coordination record (arrival clocks, payload sizes) stays in
// the parent, so Idle/Comm charges are bit-identical to inprocess even
// though payload delivery crosses the kernel.
const TransportProcSharded = "proc-sharded"

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
// this runtime has executed (parent counters plus per-worker reports; see
// wire.PoolStats). Populated on graceful shutdowns only — a broken fleet
// is killed, not interviewed.
func (r *procRuntime) WireStats() wire.PoolStats {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	out := r.s.stats
	out.Workers = append([]wire.Stats(nil), out.Workers...)
	return out
}

// procFleet is the frame delivery: one worker fleet per Run, every payload
// a wire.Frame whose freshly-read copy the receiver owns outright.
type procFleet struct {
	workers int

	pool *wire.Pool // set between start and stop

	mu    sync.Mutex
	stats wire.PoolStats // accumulated across Runs
}

// start brings up a fresh worker fleet.
func (f *procFleet) start(deliver func(parcel), fail func(error)) error {
	onData := func(fr wire.Frame) {
		deliver(parcel{frameKey{int(fr.Seq), int(fr.Src), int(fr.Dst)}, fr.Payload})
	}
	pool, err := wire.StartPool("", f.workers, onData, fail)
	if err != nil {
		return err
	}
	f.pool = pool
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
	return f.pool.SendPost(frames)
}

// stop reaps the worker fleet. A healthy or body-aborted run shuts down
// gracefully (collecting worker stats); a broken wire is killed outright.
func (f *procFleet) stop(broken bool) error {
	pool := f.pool
	f.pool = nil
	if broken {
		pool.Kill()
		return nil
	}
	stats, err := pool.Shutdown()
	f.mu.Lock()
	f.stats.Add(stats)
	f.mu.Unlock()
	return err
}

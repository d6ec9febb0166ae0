package core

import goruntime "runtime"

// TransportShardedAsync is the sharded runtime: N simulated devices
// multiplexed onto a bounded worker pool.
//
// Scheduling model: every device is a goroutine, but only Workers of them
// execute at a time — a device entering a collective wait yields its
// execution slot, so the pool can be far smaller than the device count
// without deadlocking (that is the sharding: device state is cheap, worker
// slots model the machines actually running them).
//
// Data and time model: the collective engine in collective.go over the
// pointer delivery, exactly as inprocess runs it, so training results and
// simulated clocks are bit-identical to inprocess at every worker count.
const TransportShardedAsync = "sharded-async"

func init() {
	RegisterTransport(TransportShardedAsync, newShardedRuntime)
}

// newShardedRuntime builds the engine with TransportSpec.Workers execution
// slots (default one per CPU) and the pointer delivery.
func newShardedRuntime(spec TransportSpec) Runtime {
	workers := spec.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	return newEngine(spec, workers, &pointerDelivery{})
}

// pointerDelivery hands every payload straight to the engine: the buffer
// the sender posted is the buffer its one receiver gets. Safe because each
// buffer has exactly one consumer, which releases it into its own arena
// only after decoding, and nothing is kept of the sender's payloads
// container — callers may reuse theirs (core.Arena.Payloads) while a
// straggler has yet to receive.
type pointerDelivery struct {
	deliver func(parcel)
}

func (p *pointerDelivery) start(deliver func(parcel), _ func(error)) error {
	p.deliver = deliver
	return nil
}

func (p *pointerDelivery) send(post []parcel) error {
	for _, pc := range post {
		p.deliver(pc)
	}
	return nil
}

func (p *pointerDelivery) stop(bool) error { return nil }

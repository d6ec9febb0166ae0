package core

import goruntime "runtime"

// TransportShardedAsync is the sharded async runtime: N simulated devices
// multiplexed onto a bounded worker pool, with non-blocking sends that let
// fast devices run ahead of stragglers up to a configurable staleness
// bound.
//
// Scheduling model: every device is a goroutine, but only Workers of them
// execute at a time — a device entering a collective wait yields its
// execution slot, so the pool can be far smaller than the device count
// without deadlocking (that is the sharding: device state is cheap, worker
// slots model the machines actually running them).
//
// Data model: collectives are sequence-numbered per device (the engine in
// collective.go). Payloads are handed over by pointer, keyed by (sequence,
// source, destination) and matched exactly — a receiver always gets the
// payload its peer produced for the same collective, never stale data, so
// training results are bit-identical to the in-process cluster at every
// staleness bound.
//
// Time model: at Staleness 0 every collective is a full rendezvous charged
// exactly like package cluster (entry gap to Idle, transfer formulas to
// Comm), so simulated clocks are also bit-identical to the reference. At
// Staleness S > 0 the one-to-many collectives relax: a gather sender
// charges only its own transfer and moves on, a scatter/broadcast receiver
// waits only for the root — devices may run up to S collectives ahead of
// the slowest straggler before backpressure blocks them. The same cost
// model is charged throughout; what changes is how much Idle the stragglers
// inflict on everyone else.
const TransportShardedAsync = "sharded-async"

func init() {
	RegisterTransport(TransportShardedAsync, newShardedRuntime)
}

// newShardedRuntime builds the engine with TransportSpec.Workers execution
// slots (default one per CPU), TransportSpec.Staleness as the run-ahead
// bound, and the pointer delivery.
func newShardedRuntime(spec TransportSpec) Runtime {
	if spec.Parts <= 0 {
		panic("core: sharded-async needs at least one device")
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	return newEngine(spec, workers, spec.Staleness, &pointerDelivery{})
}

// pointerDelivery hands every payload straight to the engine: the buffer
// the sender posted is the buffer its one receiver gets. Safe under
// run-ahead because each buffer has exactly one consumer, which releases it
// into its own arena only after decoding, and nothing is kept of the
// sender's payloads container — callers may reuse theirs
// (core.Arena.Payloads) while a straggler has yet to receive.
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

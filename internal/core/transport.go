package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/tensor"
	"repro/internal/timing"
)

// Transport is the device-side communication surface the trainer and the
// message codecs are written against. The collective engine
// (collective.go) implements the contract once for every built-in backend
// — inprocess and proc-sharded differ only in how a payload is delivered —
// and the conformance suites (ConformTransport, ConformTransportChaos) are
// its independent check. User-registered backends satisfy the same
// contract without the training loop changing.
//
// Every collective must be entered by all devices of the runtime, payload
// buffers are owned by the receiver after the call, and simulated time is
// charged to the device clock by package cluster's cost functions (Raw*
// variants charge nothing — metrics sideband).
type Transport interface {
	// Rank is this device's id in [0, Size).
	Rank() int
	// Size is the number of devices in the runtime.
	Size() int
	// Clock is this device's simulated clock.
	Clock() *timing.Clock
	// Model is the shared hardware cost model.
	Model() *timing.CostModel
	// Rand is this device's private deterministic dropout stream. Codecs
	// round from ExchangeEnv.Round instead, so the masks do not depend on
	// the codec.
	Rand() *tensor.RNG
	// Barrier aligns all devices (stragglers charged to Idle).
	Barrier()
	// RingAll2All exchanges per-destination buffers over the ring schedule,
	// charging Comm round by round.
	RingAll2All(payloads [][]byte) [][]byte
	// AllReduceSum sums matrices elementwise across devices, charging
	// cluster.AllReduceTime (the cheapest textbook schedule).
	AllReduceSum(ms []*tensor.Matrix)
	// GatherBytes collects every device's payload at root.
	GatherBytes(root int, payload []byte) [][]byte
	// ScatterBytes distributes payloads[i] from root to device i.
	ScatterBytes(root int, payloads [][]byte) []byte
	// BroadcastBytes sends root's payload to all devices (sequential
	// broadcast timing — SANCUS's pattern).
	BroadcastBytes(root int, payload []byte) []byte
	// StartBroadcast begins a split-phase broadcast and returns without
	// blocking; the handle's Wait delivers the payload and charges the
	// clock via timing.FinishDeferred. Start immediately followed by Wait
	// is bitwise identical to BroadcastBytes; compute issued between the
	// two hides wire time, recorded under timing.Overlap.
	StartBroadcast(root int, payload []byte) PendingCollective
	// StartScatter is the split-phase form of ScatterBytes under the same
	// start/wait contract as StartBroadcast.
	StartScatter(root int, payloads [][]byte) PendingCollective
	// RawAll2All moves buffers like RingAll2All but charges no time.
	RawAll2All(payloads [][]byte) [][]byte
	// RawAllGather shares one buffer from every device with every device,
	// charging no time.
	RawAllGather(payload []byte) [][]byte
}

// PendingCollective is the handle of an in-flight split-phase collective.
// Wait blocks until every device has started the collective, charges this
// device's clock via timing.FinishDeferred and returns the same bytes the
// blocking form would. Wait must be called exactly once per handle, in
// Start order (FIFO) — the completion schedule is part of the
// deterministic clock contract.
type PendingCollective interface {
	Wait() []byte
}

// Runtime launches one Transport per device and runs a training body on
// each. It owns the aggregate measurements a run reports.
type Runtime interface {
	// Size is the device count.
	Size() int
	// Run executes body on every device concurrently; each device's RNG is
	// derived from seed and its rank. The first non-nil error is returned.
	Run(seed uint64, body func(Transport) error) error
	// Clocks returns the per-device simulated clocks (read after Run).
	Clocks() []*timing.Clock
	// BytesMoved returns per-(src,dst) payload byte totals.
	BytesMoved() [][]int64
}

// TransportSpec carries everything a RuntimeFactory needs to build one
// run's runtime. Backends ignore knobs they have no use for: inprocess
// reads only Parts and Model.
type TransportSpec struct {
	// Parts is the simulated device count.
	Parts int
	// Model is the hardware cost model (nil = timing.Default()). Under a
	// fault plan it already reflects the plan's slowed links.
	Model *timing.CostModel
	// Workers is proc-sharded's worker process count (<= 0 = 2, clamped
	// to Parts). No other built-in backend reads it.
	Workers int
}

// RuntimeFactory builds a Runtime for one training run.
type RuntimeFactory func(spec TransportSpec) Runtime

// TransportInprocess is the default transport: the collective engine with
// one goroutine per device, handing payloads over by pointer under the
// simulated cost model.
const TransportInprocess = "inprocess"

// registry is the name → value table behind RegisterCodec and
// RegisterTransport: filled at init time, read by every run.
type registry[T any] struct {
	kind string // "codec" or "transport", for messages
	mu   sync.RWMutex
	m    map[string]T
}

// register adds v under name; a duplicate name panics (registration is an
// init-time programming decision, not a runtime condition).
func (r *registry[T]) register(name string, v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("core: %s %q registered twice", r.kind, name))
	}
	if r.m == nil {
		r.m = map[string]T{}
	}
	r.m[name] = v
}

func (r *registry[T]) lookup(name string) (T, error) {
	r.mu.RLock()
	v, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return v, fmt.Errorf("core: unknown %s %q (have %v)", r.kind, name, r.names())
	}
	return v, nil
}

// names lists the registered names, sorted.
func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var transportRegistry = registry[RuntimeFactory]{kind: "transport"}

// RegisterTransport makes a runtime backend available under name.
// Registering a duplicate name panics.
func RegisterTransport(name string, f RuntimeFactory) { transportRegistry.register(name, f) }

// LookupTransport resolves a registered runtime backend.
func LookupTransport(name string) (RuntimeFactory, error) { return transportRegistry.lookup(name) }

// TransportNames lists the registered backends, sorted.
func TransportNames() []string { return transportRegistry.names() }

func init() { RegisterTransport(TransportInprocess, newInprocess) }

// newInprocess builds the engine over the pointer delivery.
func newInprocess(spec TransportSpec) Runtime { return newEngine(spec, &pointerDelivery{}) }

// pointerDelivery hands every payload straight to the engine: the buffer
// the sender posted is the buffer its one receiver gets. Safe because each
// buffer has exactly one consumer, which releases it into the payload pool
// only after decoding, and nothing is kept of the sender's payloads
// container — callers may reuse theirs (ExchangeEnv.payloads) while a
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

func (p *pointerDelivery) stop(bool, bool) error { return nil }

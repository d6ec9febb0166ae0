package core

import (
	"sync"

	"repro/internal/chaos"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// This file injects a chaos.FaultPlan into any Runtime by wrapping its
// devices. Injection is centralized here — backends stay fault-agnostic —
// and charges simulated time only, which preserves the repo's invariant
// that fixed-seed loss curves are bit-identical with and without faults:
//
//   - straggler compute slowdown: on entering a charged collective, the
//     local work done since the previous collective is re-charged
//     (factor-1)× to Comp, so the device arrives late and the collective's
//     own alignment rules propagate the slack;
//   - transient failures: after the collective completes, each scheduled
//     failed attempt re-charges the collective's measured Comm cost (the
//     lost transfer) plus an exponentially growing backoff charged to
//     Idle. Retries move no extra payload bytes — the byte ledger of a
//     faulted run must equal the fault-free ledger, and the chaos
//     conformance mode checks exactly that;
//   - crash/restart is a trainer-level protocol (worker.run), not a
//     transport concern: the plan only fixes the site.
//
// The wrapper is a decorator rather than a hook inside the collective
// engine because it must also wrap user-registered transports, which need
// not run on the engine. A training run issues the same per-device
// sequence of charged collectives on every backend, so the op counter below
// — and with it the whole failure schedule — is identical across backends
// by construction.

// faultStats accumulates fault/recovery counters across all devices of a
// run; TrainDeployedCtx surfaces them as metrics.FaultStats.
type faultStats struct {
	mu           sync.Mutex
	retries      int64
	retryTime    timing.Seconds
	crashes      int64
	recoveryTime timing.Seconds
}

func (s *faultStats) addRetries(n int64, t timing.Seconds) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.retries += n
	s.retryTime += t
	s.mu.Unlock()
}

func (s *faultStats) addCrash(t timing.Seconds) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.crashes++
	s.recoveryTime += t
	s.mu.Unlock()
}

// snapshot returns the accumulated counters.
func (s *faultStats) snapshot() (retries int64, retryTime timing.Seconds, crashes int64, recoveryTime timing.Seconds) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retries, s.retryTime, s.crashes, s.recoveryTime
}

// faultFactory wraps a runtime factory so every runtime it builds injects
// plan's faults: the spec's cost model is derived through the plan (slowed
// straggler links) and every device is wrapped in a faultDevice. stats may
// be nil when the caller doesn't need counters.
func faultFactory(f RuntimeFactory, plan *chaos.FaultPlan, stats *faultStats) RuntimeFactory {
	return func(spec TransportSpec) Runtime {
		spec.Model = plan.ApplyToModel(spec.Model)
		return &faultRuntime{inner: f(spec), plan: plan, stats: stats}
	}
}

// faultRuntime wraps a backend's Runtime, handing each body a faultDevice.
type faultRuntime struct {
	inner Runtime
	plan  *chaos.FaultPlan
	stats *faultStats
}

func (r *faultRuntime) Size() int               { return r.inner.Size() }
func (r *faultRuntime) Clocks() []*timing.Clock { return r.inner.Clocks() }
func (r *faultRuntime) BytesMoved() [][]int64   { return r.inner.BytesMoved() }

func (r *faultRuntime) Run(seed uint64, body func(Transport) error) error {
	return r.inner.Run(seed, func(dev Transport) error {
		return body(&faultDevice{Transport: dev, plan: r.plan, stats: r.stats})
	})
}

// faultDevice threads one device's charged collectives through the fault
// plan. Raw* sideband collectives and plain accessors pass through.
type faultDevice struct {
	Transport
	plan  *chaos.FaultPlan
	stats *faultStats
	// op indexes this device's charged collectives (the failure
	// schedule's key); last is the clock position after the previous
	// charged collective (the slowdown window's start).
	op   int
	last timing.Seconds
}

// around runs one charged collective under the plan: pre-charge the
// straggler slowdown on the local work since the last collective, run the
// collective, then charge any scheduled transient failures.
func (d *faultDevice) around(fn func()) {
	d.chargeSlowdown()
	commBefore := d.Transport.Clock().Spent(timing.Comm)
	fn()
	d.chargeRetries(d.op, commBefore)
	d.op++
}

// chargeRetries charges op's scheduled transient failures once the
// collective has completed. Each failed attempt lost the transfer it had
// started — the Comm this device paid for the collective since commBefore —
// and then backed off, twice as long each time, before retrying. Charged
// after the collective's own alignment: peers observe the retries at the
// next rendezvous, not this one. It closes the slowdown window.
func (d *faultDevice) chargeRetries(op int, commBefore timing.Seconds) {
	ck := d.Transport.Clock()
	if fails := d.plan.Failures(d.Transport.Rank(), op); fails > 0 {
		lost := ck.Spent(timing.Comm) - commBefore
		backoff := timing.Seconds(d.plan.Spec.Backoff)
		var retryTime timing.Seconds
		for i := 0; i < fails; i++ {
			ck.Advance(timing.Idle, backoff)
			ck.Advance(timing.Comm, lost)
			retryTime += backoff + lost
			backoff *= 2
		}
		d.stats.addRetries(int64(fails), retryTime)
	}
	d.last = ck.Now()
}

func (d *faultDevice) Barrier() {
	d.around(func() { d.Transport.Barrier() })
}

func (d *faultDevice) RingAll2All(payloads [][]byte) [][]byte {
	var out [][]byte
	d.around(func() { out = d.Transport.RingAll2All(payloads) })
	return out
}

func (d *faultDevice) AllReduceSum(ms []*tensor.Matrix) {
	d.around(func() { d.Transport.AllReduceSum(ms) })
}

func (d *faultDevice) GatherBytes(root int, payload []byte) [][]byte {
	var out [][]byte
	d.around(func() { out = d.Transport.GatherBytes(root, payload) })
	return out
}

func (d *faultDevice) ScatterBytes(root int, payloads [][]byte) []byte {
	var out []byte
	d.around(func() { out = d.Transport.ScatterBytes(root, payloads) })
	return out
}

func (d *faultDevice) BroadcastBytes(root int, payload []byte) []byte {
	var out []byte
	d.around(func() { out = d.Transport.BroadcastBytes(root, payload) })
	return out
}

// chargeSlowdown applies the straggler factor to the local work done since
// the previous charging point and moves the window forward. Split-phase
// collectives have two charging points — Start (work before the post) and
// Wait entry (work overlapped with the in-flight collective) — so every
// instant of a straggler's compute pays the factor exactly once and its
// posts/rendezvous happen at the slowed times, exactly as in the blocking
// path.
func (d *faultDevice) chargeSlowdown() {
	r := d.Transport.Rank()
	ck := d.Transport.Clock()
	if s := d.plan.Slowdown[r]; s > 1 {
		if work := ck.Now() - d.last; work > 0 {
			ck.Advance(timing.Comp, work*timing.Seconds(s-1))
		}
	}
	d.last = ck.Now()
}

// startSplit claims the next op index for a split-phase collective. The
// index is claimed at Start — matching the blocking path, where the op
// counter advances in collective-issue order — so the failure schedule is
// identical whether a collective is issued blocking or split.
func (d *faultDevice) startSplit() int {
	d.chargeSlowdown()
	op := d.op
	d.op++
	return op
}

func (d *faultDevice) StartBroadcast(root int, payload []byte) PendingCollective {
	op := d.startSplit()
	return &faultPending{d: d, inner: d.Transport.StartBroadcast(root, payload), op: op}
}

func (d *faultDevice) StartScatter(root int, payloads [][]byte) PendingCollective {
	op := d.startSplit()
	return &faultPending{d: d, inner: d.Transport.StartScatter(root, payloads), op: op}
}

// faultPending wraps an inner split-phase handle with the fault plan's
// charging: straggler slowdown on the overlapped compute at Wait entry,
// then transient-failure retries against the Comm this device actually
// paid for the collective (measured from Wait entry, not Start — other
// handles' Waits may charge Comm in between; a fully hidden transfer
// loses nothing but the backoff).
type faultPending struct {
	d     *faultDevice
	inner PendingCollective
	op    int
}

func (p *faultPending) Wait() []byte {
	p.d.chargeSlowdown()
	commBefore := p.d.Transport.Clock().Spent(timing.Comm)
	out := p.inner.Wait()
	p.d.chargeRetries(p.op, commBefore)
	return out
}

package adaqp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// ErrCanceled is returned by a run stopped through its context (Session.
// RunContext) or through SessionHandle.Cancel. Cancellation lands between
// epochs; the epoch in flight completes first.
var ErrCanceled = core.ErrCanceled

// Admission-control errors returned by Scheduler.Submit.
var (
	// ErrQueueFull: the scheduler's queue is at capacity; back off by
	// Scheduler.RetryAfter and retry.
	ErrQueueFull = serve.ErrQueueFull
	// ErrDraining: Drain has begun; the scheduler accepts no new work.
	ErrDraining = serve.ErrDraining
	// ErrSessionNotTerminal: Remove was called on a session still queued
	// or running; cancel it first, then remove once terminal.
	ErrSessionNotTerminal = serve.ErrNotTerminal
)

// SessionStatus is a scheduled session's lifecycle state.
type SessionStatus = serve.Status

// Session lifecycle states.
const (
	SessionQueued   = serve.Queued
	SessionRunning  = serve.Running
	SessionDone     = serve.Done
	SessionFailed   = serve.Failed
	SessionCanceled = serve.Canceled
)

// SchedulerCounters is a snapshot of a scheduler's lifetime counters and
// live gauges.
type SchedulerCounters = serve.Counters

// SchedulerOption configures NewScheduler.
type SchedulerOption func(*serve.Options) error

// WithMaxConcurrentSessions sets the worker-pool size: how many training
// sessions execute simultaneously (default 2). Each session still runs its
// own simulated device cluster, so total goroutine parallelism is roughly
// sessions × parts.
func WithMaxConcurrentSessions(n int) SchedulerOption {
	return func(o *serve.Options) error {
		if n < 1 {
			return fmt.Errorf("adaqp: max concurrent sessions must be >= 1, got %d", n)
		}
		o.MaxConcurrent = n
		return nil
	}
}

// WithQueueDepth bounds how many admitted sessions may wait for a worker
// slot (default 16). Submissions beyond it are rejected with ErrQueueFull.
func WithQueueDepth(n int) SchedulerOption {
	return func(o *serve.Options) error {
		if n < 1 {
			return fmt.Errorf("adaqp: queue depth must be >= 1, got %d", n)
		}
		o.QueueDepth = n
		return nil
	}
}

// WithRetryAfter sets the back-off hint attached to queue-full rejections
// (default 1s); cmd/adaqpd surfaces it as the Retry-After header.
func WithRetryAfter(d time.Duration) SchedulerOption {
	return func(o *serve.Options) error {
		if d <= 0 {
			return fmt.Errorf("adaqp: retry-after must be positive, got %v", d)
		}
		o.RetryAfter = d
		return nil
	}
}

// WithSessionRetention bounds how long terminal sessions stay retrievable:
// at most max records (0 keeps the default 1024, negative means unlimited),
// each for at most ttl after finishing (0 means no TTL). Queued and
// running sessions are never evicted. Without a bound a long-lived daemon's
// session table grows forever.
func WithSessionRetention(max int, ttl time.Duration) SchedulerOption {
	return func(o *serve.Options) error {
		if ttl < 0 {
			return fmt.Errorf("adaqp: session retention ttl must be >= 0, got %v", ttl)
		}
		o.MaxRetained = max
		o.RetainFor = ttl
		return nil
	}
}

// Scheduler serves many concurrent training sessions from one long-lived
// process: a bounded worker pool executes them, a bounded queue admits
// them, and every session is fully isolated — its own Engine, deployment
// and codec/transport state derived from its own options — so concurrent
// sessions produce results bit-identical to the same configurations run
// alone. All methods are safe for concurrent use.
type Scheduler struct {
	s *serve.Scheduler

	// dsMu guards dsCache: datasets resolved by SubmitSpec, keyed by
	// (name, scale). Datasets are read-only during training (each session
	// shards its own copies), so one instance safely serves every
	// concurrent session; caching keeps admission from regenerating the
	// same synthetic graph for every job of a load burst.
	dsMu    sync.Mutex
	dsCache map[dsKey]*Dataset

	// faultMu guards faults and overlap: counters accumulated across
	// every completed session (survives session eviction, so the daemon's
	// metrics stay monotonic).
	faultMu sync.Mutex
	faults  FaultStats
	overlap Seconds
}

type dsKey struct {
	name  string
	scale float64
}

// NewScheduler starts a session scheduler. Call Drain to shut it down.
func NewScheduler(opts ...SchedulerOption) (*Scheduler, error) {
	var o serve.Options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	return &Scheduler{s: serve.New(o), dsCache: make(map[dsKey]*Dataset)}, nil
}

// Submit admits one training session over ds with the given options,
// validated now (an invalid combination fails fast, before queueing). It
// never blocks: a full queue returns ErrQueueFull, a draining scheduler
// ErrDraining. The session's Engine and deployment are built on the worker
// when the session starts, so partitioning cost is part of the measured
// session, not of admission.
func (sc *Scheduler) Submit(ds *Dataset, opts ...Option) (*SessionHandle, error) {
	if ds == nil {
		return nil, fmt.Errorf("adaqp: nil dataset")
	}
	set := defaultSettings()
	if err := set.apply(opts); err != nil {
		return nil, err
	}
	run := func(ctx context.Context, sess *serve.Session) (any, error) {
		// Per-session isolation: a fresh Engine (own deployment, own
		// codec instances via the run's CodecEnv) per submitted session.
		s := set
		prev := s.cfg.EpochHook
		s.cfg.EpochHook = func(e EpochStat) {
			sess.SetProgress(int64(e.Epoch) + 1)
			if prev != nil {
				prev(e)
			}
		}
		eng := &Engine{ds: ds, base: s}
		session, err := eng.Session()
		if err != nil {
			return nil, err
		}
		res, err := session.RunContext(ctx)
		if res != nil {
			sc.record(res)
		}
		return res, err
	}
	sess, err := sc.s.Submit(run)
	if err != nil {
		return nil, err
	}
	return &SessionHandle{s: sess}, nil
}

// SubmitSpec is Submit from a declarative JobSpec (loading its dataset),
// plus extra programmatic options applied after the spec's — how cmd/adaqpd
// turns job JSON into sessions.
func (sc *Scheduler) SubmitSpec(spec JobSpec, extra ...Option) (*SessionHandle, error) {
	ds, err := sc.dataset(spec)
	if err != nil {
		return nil, err
	}
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	return sc.Submit(ds, append(opts, extra...)...)
}

// dataset resolves a spec's dataset through the scheduler's cache.
func (sc *Scheduler) dataset(spec JobSpec) (*Dataset, error) {
	scale := spec.Scale
	if scale == 0 {
		scale = 1
	}
	key := dsKey{name: spec.Dataset, scale: scale}
	sc.dsMu.Lock()
	defer sc.dsMu.Unlock()
	if ds, ok := sc.dsCache[key]; ok {
		return ds, nil
	}
	ds, err := spec.Load()
	if err != nil {
		return nil, err
	}
	sc.dsCache[key] = ds
	return ds, nil
}

// Session returns the handle for a scheduler-assigned session id.
func (sc *Scheduler) Session(id string) (*SessionHandle, bool) {
	sess, ok := sc.s.Session(id)
	if !ok {
		return nil, false
	}
	return &SessionHandle{s: sess}, true
}

// Sessions lists every session in submission order.
func (sc *Scheduler) Sessions() []*SessionHandle {
	raw := sc.s.Sessions()
	out := make([]*SessionHandle, len(raw))
	for i, sess := range raw {
		out[i] = &SessionHandle{s: sess}
	}
	return out
}

// Cancel requests cancellation of the session with the given id and
// reports whether the id was known (see SessionHandle.Cancel).
func (sc *Scheduler) Cancel(id string) bool { return sc.s.Cancel(id) }

// Remove deletes a terminal session's record immediately instead of
// waiting for retention eviction. It reports whether the id was known;
// removing a queued or running session fails with ErrSessionNotTerminal.
func (sc *Scheduler) Remove(id string) (bool, error) { return sc.s.Remove(id) }

// record folds one finished session's fault counters and hidden collective
// latency into the scheduler's lifetime totals.
func (sc *Scheduler) record(res *Result) {
	f := res.Faults
	ovl := res.OverlapSeconds()
	if !f.Any() && ovl == 0 {
		return
	}
	sc.faultMu.Lock()
	sc.faults.Stragglers += f.Stragglers
	sc.faults.Retries += f.Retries
	sc.faults.RetryTime += f.RetryTime
	sc.faults.Crashes += f.Crashes
	sc.faults.RecoveryTime += f.RecoveryTime
	sc.overlap += ovl
	sc.faultMu.Unlock()
}

// FaultTotals returns fault/recovery counters accumulated across every
// completed session (monotonic; unaffected by session eviction).
func (sc *Scheduler) FaultTotals() FaultStats {
	sc.faultMu.Lock()
	defer sc.faultMu.Unlock()
	return sc.faults
}

// OverlapTotal returns the simulated seconds compute and collectives ran
// concurrently (RunResult.OverlapSeconds) summed across every completed
// session, monotonic like FaultTotals.
func (sc *Scheduler) OverlapTotal() Seconds {
	sc.faultMu.Lock()
	defer sc.faultMu.Unlock()
	return sc.overlap
}

// Drain stops admission (Submit returns ErrDraining) and waits for every
// queued and running session to finish, or for ctx to expire. Idempotent.
func (sc *Scheduler) Drain(ctx context.Context) error { return sc.s.Drain(ctx) }

// Draining reports whether Drain has begun.
func (sc *Scheduler) Draining() bool { return sc.s.Draining() }

// Counters snapshots the scheduler's lifetime counters and live gauges.
func (sc *Scheduler) Counters() SchedulerCounters { return sc.s.Counters() }

// RetryAfter is the back-off hint attached to queue-full rejections.
func (sc *Scheduler) RetryAfter() time.Duration { return sc.s.Options().RetryAfter }

// SessionHandle tracks one submitted session. All methods are safe for
// concurrent use.
type SessionHandle struct {
	s *serve.Session
}

// ID is the scheduler-assigned identifier ("job-N").
func (h *SessionHandle) ID() string { return h.s.ID() }

// Status returns the session's lifecycle state.
func (h *SessionHandle) Status() SessionStatus { return h.s.Status() }

// EpochsDone returns how many training epochs the session has completed,
// streamed from the engine's per-epoch callback seam.
func (h *SessionHandle) EpochsDone() int { return int(h.s.Progress()) }

// Cancel requests cancellation. A queued session is discarded without
// running; a running one stops at its next epoch boundary (finishing the
// epoch in flight) and releases its worker slot. Safe in any state.
func (h *SessionHandle) Cancel() { h.s.Cancel() }

// Done is closed when the session reaches a terminal state.
func (h *SessionHandle) Done() <-chan struct{} { return h.s.Done() }

// Times returns the submission, start and finish timestamps; zero values
// mark stages not yet reached.
func (h *SessionHandle) Times() (submitted, started, finished time.Time) {
	return h.s.Times()
}

// Result returns the session's outcome: (result, nil) after SessionDone,
// (nil, err) after SessionFailed or SessionCanceled — with
// errors.Is(err, ErrCanceled) true for cancellations — and (nil, nil)
// while the session is still queued or running.
func (h *SessionHandle) Result() (*Result, error) {
	if h.s.Status() == SessionCanceled {
		// Uniform cancellation error whether the session was discarded
		// from the queue (context.Canceled) or stopped mid-run.
		return nil, ErrCanceled
	}
	raw, err := h.s.Result()
	if err != nil {
		return nil, err
	}
	if raw == nil {
		return nil, nil
	}
	return raw.(*Result), nil
}

// Wait blocks until the session is terminal or ctx expires, then returns
// Result's values.
func (h *SessionHandle) Wait(ctx context.Context) (*Result, error) {
	if _, err := h.s.Wait(ctx); err != nil {
		return nil, err
	}
	return h.Result()
}

package adaqp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// ErrCanceled is returned by a run stopped through its context (Session.
// RunContext) or through SessionHandle.Cancel. Cancellation lands between
// epochs; the epoch in flight completes first.
var ErrCanceled = core.ErrCanceled

// Admission-control errors returned by Scheduler.Submit.
var (
	// ErrQueueFull: the scheduler's queue is at capacity; back off by
	// Scheduler.RetryAfter and retry.
	ErrQueueFull = errors.New("adaqp: session queue full")
	// ErrDraining: Drain has begun; the scheduler accepts no new work.
	ErrDraining = errors.New("adaqp: scheduler draining")
	// ErrSessionNotTerminal: Remove was called on a session still queued
	// or running; cancel it first, then remove once terminal.
	ErrSessionNotTerminal = errors.New("adaqp: session not terminal")
)

// SessionStatus is a scheduled session's lifecycle state.
type SessionStatus int

// Session lifecycle states.
const (
	// SessionQueued: admitted, waiting for a worker slot.
	SessionQueued SessionStatus = iota
	// SessionRunning: training on a worker.
	SessionRunning
	// SessionDone: completed successfully; Result holds the outcome.
	SessionDone
	// SessionFailed: completed with an error other than cancellation.
	SessionFailed
	// SessionCanceled: stopped by Cancel before or during training.
	SessionCanceled
)

func (s SessionStatus) String() string {
	switch s {
	case SessionQueued:
		return "queued"
	case SessionRunning:
		return "running"
	case SessionDone:
		return "done"
	case SessionFailed:
		return "failed"
	case SessionCanceled:
		return "canceled"
	}
	return fmt.Sprintf("SessionStatus(%d)", int(s))
}

// Terminal reports whether the status is final. A session is terminal
// exactly when its finish time, outcome and counter have been recorded.
func (s SessionStatus) Terminal() bool {
	return s == SessionDone || s == SessionFailed || s == SessionCanceled
}

// SchedulerCounters is a snapshot of a scheduler's lifetime counters and
// live gauges (the daemon's /metrics surface).
type SchedulerCounters struct {
	Submitted int64 // admitted into the queue
	Started   int64 // began training on a worker
	Completed int64 // finished successfully
	Failed    int64 // finished with a non-cancellation error
	Canceled  int64 // stopped by Cancel (queued or running)
	Rejected  int64 // refused admission (queue full or draining)

	QueueDepth int // admitted sessions not yet taken by a worker
	Running    int // sessions training right now
}

// schedulerOptions is what a SchedulerOption sets.
type schedulerOptions struct {
	maxConcurrent int
	queueDepth    int
	retryAfter    time.Duration
	maxRetained   int // 0 selects 1024, negative means unlimited
	retainFor     time.Duration
}

// SchedulerOption configures NewScheduler.
type SchedulerOption func(*schedulerOptions) error

// WithMaxConcurrentSessions sets the worker-pool size: how many training
// sessions execute simultaneously (default 2). Each session still runs its
// own simulated device cluster, so total goroutine parallelism is roughly
// sessions × parts.
func WithMaxConcurrentSessions(n int) SchedulerOption {
	return func(o *schedulerOptions) error {
		if n < 1 {
			return fmt.Errorf("adaqp: max concurrent sessions must be >= 1, got %d", n)
		}
		o.maxConcurrent = n
		return nil
	}
}

// WithQueueDepth bounds how many admitted sessions may wait for a worker
// slot (default 16). Submissions beyond it are rejected with ErrQueueFull.
func WithQueueDepth(n int) SchedulerOption {
	return func(o *schedulerOptions) error {
		if n < 1 {
			return fmt.Errorf("adaqp: queue depth must be >= 1, got %d", n)
		}
		o.queueDepth = n
		return nil
	}
}

// WithRetryAfter sets the back-off hint attached to queue-full rejections
// (default 1s); cmd/adaqpd surfaces it as the Retry-After header.
func WithRetryAfter(d time.Duration) SchedulerOption {
	return func(o *schedulerOptions) error {
		if d <= 0 {
			return fmt.Errorf("adaqp: retry-after must be positive, got %v", d)
		}
		o.retryAfter = d
		return nil
	}
}

// WithSessionRetention bounds how long terminal sessions stay retrievable:
// at most max records (0 keeps the default 1024, negative means unlimited),
// each for at most ttl after finishing (0 means no TTL). Queued and
// running sessions are never evicted. Without a bound a long-lived daemon's
// session table grows forever.
func WithSessionRetention(max int, ttl time.Duration) SchedulerOption {
	return func(o *schedulerOptions) error {
		if ttl < 0 {
			return fmt.Errorf("adaqp: session retention ttl must be >= 0, got %v", ttl)
		}
		o.maxRetained = max
		o.retainFor = ttl
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
	opts  schedulerOptions
	queue chan *SessionHandle
	wg    sync.WaitGroup

	// mu guards everything below and every session's lifecycle fields, so
	// a session's terminal transition and its counter are one step.
	mu       sync.Mutex
	sessions map[string]*SessionHandle
	order    []string // retained ids in submission order
	nextID   int64
	draining bool
	counts   SchedulerCounters // QueueDepth is filled in by Counters
	// faults and overlap accumulate across every finished session and
	// survive its eviction, so the daemon's metrics stay monotonic.
	faults  FaultStats
	overlap Seconds

	// dsMu guards dsCache: datasets resolved by SubmitSpec, keyed by
	// (name, scale). Datasets are read-only during training (each session
	// shards its own copies), so one instance safely serves every
	// concurrent session; caching keeps admission from regenerating the
	// same synthetic graph for every job of a load burst. A full cache is
	// emptied before the next insert, so a stream of distinct scales cannot
	// grow the daemon without bound.
	dsMu    sync.Mutex
	dsCache map[dsKey]*Dataset
}

// maxCachedDatasets caps the dataset cache above the handful of (name,
// scale) keys a steady job mix cycles through.
const maxCachedDatasets = 4

type dsKey struct {
	name  string
	scale float64
}

// NewScheduler starts a session scheduler. Call Drain to shut it down.
func NewScheduler(opts ...SchedulerOption) (*Scheduler, error) {
	o := schedulerOptions{maxConcurrent: 2, queueDepth: 16, retryAfter: time.Second}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.maxRetained == 0 {
		o.maxRetained = 1024
	}
	sc := &Scheduler{
		opts:     o,
		queue:    make(chan *SessionHandle, o.queueDepth),
		sessions: make(map[string]*SessionHandle),
		dsCache:  make(map[dsKey]*Dataset),
	}
	for i := 0; i < o.maxConcurrent; i++ {
		sc.wg.Add(1)
		go func() {
			defer sc.wg.Done()
			for h := range sc.queue {
				sc.execute(h)
			}
		}()
	}
	return sc, nil
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
	return sc.submit(func(ctx context.Context, h *SessionHandle) (*Result, error) {
		// Per-session isolation: a fresh Engine (own deployment, own
		// codec instances via the run's CodecEnv) per submitted session.
		s := set
		prev := s.cfg.EpochHook
		s.cfg.EpochHook = func(e EpochStat) {
			h.epochs.Store(int64(e.Epoch) + 1)
			if prev != nil {
				prev(e)
			}
		}
		session, err := (&Engine{ds: ds, base: s}).Session()
		if err != nil {
			return nil, err
		}
		return session.RunContext(ctx)
	})
}

// submit admits run as a new queued session. It is the seam Submit trains
// through and tests drive with fake runs. run must return promptly once
// its context is canceled.
func (sc *Scheduler) submit(run func(context.Context, *SessionHandle) (*Result, error)) (*SessionHandle, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.draining {
		sc.counts.Rejected++
		return nil, ErrDraining
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &SessionHandle{
		sc:        sc,
		id:        fmt.Sprintf("job-%d", sc.nextID+1),
		run:       run,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		status:    SessionQueued,
		submitted: time.Now(),
	}
	select {
	case sc.queue <- h:
	default:
		cancel()
		sc.counts.Rejected++
		return nil, ErrQueueFull
	}
	sc.nextID++
	sc.sessions[h.id] = h
	sc.order = append(sc.order, h.id)
	sc.counts.Submitted++
	sc.evictLocked(time.Now())
	return h, nil
}

// execute runs one dequeued session on the calling worker.
func (sc *Scheduler) execute(h *SessionHandle) {
	sc.mu.Lock()
	if h.status != SessionQueued { // canceled while queued: already finished
		sc.mu.Unlock()
		return
	}
	h.status, h.started = SessionRunning, time.Now()
	sc.counts.Started++
	sc.counts.Running++
	sc.mu.Unlock()

	res, err := h.run(h.ctx, h)

	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.counts.Running--
	if res != nil {
		sc.faults.Stragglers += res.Faults.Stragglers
		sc.faults.Retries += res.Faults.Retries
		sc.faults.RetryTime += res.Faults.RetryTime
		sc.faults.Crashes += res.Faults.Crashes
		sc.faults.RecoveryTime += res.Faults.RecoveryTime
		sc.overlap += res.OverlapSeconds()
	}
	switch {
	case err == nil:
		h.finishLocked(SessionDone, res, nil)
	case h.ctx.Err() != nil:
		// The session's own context was canceled; however the run
		// surfaced it, the session ends Canceled, not Failed.
		h.finishLocked(SessionCanceled, nil, ErrCanceled)
	default:
		h.finishLocked(SessionFailed, nil, err)
	}
}

// evictLocked enforces the retention policy over terminal sessions: those
// finished longer than retainFor ago go, then the oldest (submission
// order) until at most maxRetained remain. Callers hold sc.mu.
func (sc *Scheduler) evictLocked(now time.Time) {
	expired := func(h *SessionHandle) bool {
		return sc.opts.retainFor > 0 && now.Sub(h.finished) >= sc.opts.retainFor
	}
	over := 0
	if sc.opts.maxRetained >= 0 {
		over = -sc.opts.maxRetained
		for _, id := range sc.order {
			if h := sc.sessions[id]; h.status.Terminal() && !expired(h) {
				over++
			}
		}
	}
	kept := sc.order[:0]
	for _, id := range sc.order {
		h := sc.sessions[id]
		switch {
		case !h.status.Terminal():
			kept = append(kept, id)
		case expired(h):
			delete(sc.sessions, id)
		case over > 0:
			delete(sc.sessions, id)
			over--
		default:
			kept = append(kept, id)
		}
	}
	sc.order = kept
}

// SubmitSpec is Submit from a declarative JobSpec (loading its dataset),
// plus extra programmatic options applied after the spec's — how cmd/adaqpd
// turns job JSON into sessions.
func (sc *Scheduler) SubmitSpec(spec JobSpec, extra ...Option) (*SessionHandle, error) {
	// Options first: a spec past a ceiling is refused before its dataset
	// is loaded.
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	ds, err := sc.dataset(spec)
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
	if len(sc.dsCache) == maxCachedDatasets {
		clear(sc.dsCache)
	}
	sc.dsCache[key] = ds
	return ds, nil
}

// Session returns the handle for a scheduler-assigned session id.
// TTL-expired sessions are evicted on access, so a session past its
// retention is no longer found.
func (sc *Scheduler) Session(id string) (*SessionHandle, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.evictLocked(time.Now())
	h, ok := sc.sessions[id]
	return h, ok
}

// Sessions lists every retained session in submission order.
func (sc *Scheduler) Sessions() []*SessionHandle {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.evictLocked(time.Now())
	out := make([]*SessionHandle, len(sc.order))
	for i, id := range sc.order {
		out[i] = sc.sessions[id]
	}
	return out
}

// Cancel requests cancellation of the session with the given id and
// reports whether the id was known (see SessionHandle.Cancel).
func (sc *Scheduler) Cancel(id string) bool {
	h, ok := sc.Session(id)
	if ok {
		h.Cancel()
	}
	return ok
}

// Remove deletes a terminal session's record immediately instead of
// waiting for retention eviction. It reports whether the id was known;
// removing a queued or running session fails with ErrSessionNotTerminal.
func (sc *Scheduler) Remove(id string) (bool, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	h, ok := sc.sessions[id]
	if !ok {
		return false, nil
	}
	if !h.status.Terminal() {
		return true, ErrSessionNotTerminal
	}
	delete(sc.sessions, id)
	sc.order = slices.DeleteFunc(sc.order, func(o string) bool { return o == id })
	return true, nil
}

// FaultTotals returns fault/recovery counters accumulated across every
// completed session (monotonic; unaffected by session eviction).
func (sc *Scheduler) FaultTotals() FaultStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.faults
}

// OverlapTotal returns the simulated seconds compute and collectives ran
// concurrently (RunResult.OverlapSeconds) summed across every completed
// session, monotonic like FaultTotals.
func (sc *Scheduler) OverlapTotal() Seconds {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.overlap
}

// Drain stops admission (Submit returns ErrDraining) and waits for every
// queued and running session to finish, or for ctx to expire. Idempotent;
// concurrent calls all wait for the same completion.
func (sc *Scheduler) Drain(ctx context.Context) error {
	sc.mu.Lock()
	if !sc.draining {
		sc.draining = true
		close(sc.queue)
	}
	sc.mu.Unlock()
	done := make(chan struct{})
	go func() {
		sc.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (sc *Scheduler) Draining() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.draining
}

// Counters snapshots the scheduler's lifetime counters and live gauges.
func (sc *Scheduler) Counters() SchedulerCounters {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	c := sc.counts
	c.QueueDepth = len(sc.queue)
	return c
}

// RetryAfter is the back-off hint attached to queue-full rejections.
func (sc *Scheduler) RetryAfter() time.Duration { return sc.opts.retryAfter }

// SessionHandle tracks one submitted session. All methods are safe for
// concurrent use.
type SessionHandle struct {
	sc     *Scheduler
	id     string
	run    func(context.Context, *SessionHandle) (*Result, error)
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	epochs atomic.Int64

	// Guarded by sc.mu.
	status                       SessionStatus
	result                       *Result
	err                          error
	submitted, started, finished time.Time
}

// finishLocked is a session's one terminal transition: status, outcome,
// finish time and the matching counter land together, then Done closes.
// Callers hold sc.mu.
func (h *SessionHandle) finishLocked(st SessionStatus, res *Result, err error) {
	h.status, h.result, h.err, h.finished = st, res, err, time.Now()
	switch st {
	case SessionDone:
		h.sc.counts.Completed++
	case SessionFailed:
		h.sc.counts.Failed++
	case SessionCanceled:
		h.sc.counts.Canceled++
	}
	h.cancel() // release the context's resources in every terminal path
	close(h.done)
}

// ID is the scheduler-assigned identifier ("job-N").
func (h *SessionHandle) ID() string { return h.id }

// Status returns the session's lifecycle state.
func (h *SessionHandle) Status() SessionStatus {
	h.sc.mu.Lock()
	defer h.sc.mu.Unlock()
	return h.status
}

// EpochsDone returns how many training epochs the session has completed,
// streamed from the engine's per-epoch callback seam.
func (h *SessionHandle) EpochsDone() int { return int(h.epochs.Load()) }

// Cancel requests cancellation. A queued session becomes SessionCanceled
// at once and no worker runs it; a running one stops at its next epoch
// boundary (finishing the epoch in flight) and releases its worker slot.
// Safe in any state; terminal sessions are unaffected.
func (h *SessionHandle) Cancel() {
	h.sc.mu.Lock()
	defer h.sc.mu.Unlock()
	if h.status == SessionQueued {
		h.finishLocked(SessionCanceled, nil, ErrCanceled)
	}
	h.cancel()
}

// Done is closed when the session reaches a terminal state.
func (h *SessionHandle) Done() <-chan struct{} { return h.done }

// Times returns the submission, start and finish timestamps; zero values
// mark stages not yet reached.
func (h *SessionHandle) Times() (submitted, started, finished time.Time) {
	h.sc.mu.Lock()
	defer h.sc.mu.Unlock()
	return h.submitted, h.started, h.finished
}

// Result returns the session's outcome: (result, nil) after SessionDone,
// (nil, err) after SessionFailed or SessionCanceled — with
// errors.Is(err, ErrCanceled) true for cancellations — and (nil, nil)
// while the session is still queued or running.
func (h *SessionHandle) Result() (*Result, error) {
	h.sc.mu.Lock()
	defer h.sc.mu.Unlock()
	return h.result, h.err
}

// Wait blocks until the session is terminal or ctx expires, then returns
// Result's values.
func (h *SessionHandle) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-h.done:
		return h.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

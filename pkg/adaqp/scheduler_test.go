package adaqp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// schedTestOptions is a small fixed-seed AdaQP job exercising the
// adaptive codec's cross-epoch state (traces, bit-width re-assignment) —
// the state that would leak between sessions if isolation broke.
func schedTestOptions() []Option {
	return []Option{
		WithParts(2),
		WithCodec(CodecSpec{Name: CodecAdaptive}),
		WithEpochs(6),
		WithHidden(16),
		WithReassignPeriod(2),
		WithEvalEvery(3),
		WithSeed(7),
	}
}

// TestSchedulerSessionIsolation submits two identical fixed-seed sessions
// concurrently and requires both to reproduce a directly-run Engine's loss
// curve bit for bit: concurrent sessions must share no mutable codec or
// transport state.
func TestSchedulerSessionIsolation(t *testing.T) {
	ds := MustLoadDataset("tiny", 0.5)

	eng, err := New(ds, schedTestOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	sched, err := NewScheduler(WithMaxConcurrentSessions(2), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Drain(context.Background())

	var handles []*SessionHandle
	for i := 0; i < 2; i++ {
		h, err := sched.Submit(ds, schedTestOptions()...)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		got, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.Status() != SessionDone {
			t.Fatalf("session %s status = %v, want done", h.ID(), h.Status())
		}
		if len(got.Epochs) != len(want.Epochs) {
			t.Fatalf("session %s recorded %d epochs, want %d", h.ID(), len(got.Epochs), len(want.Epochs))
		}
		for i := range want.Epochs {
			if got.Epochs[i].Loss != want.Epochs[i].Loss {
				t.Fatalf("session %s epoch %d loss = %v, direct run %v (codec state leaked across sessions?)",
					h.ID(), i, got.Epochs[i].Loss, want.Epochs[i].Loss)
			}
		}
		if got.FinalTest != want.FinalTest || got.FinalVal != want.FinalVal {
			t.Fatalf("session %s final accuracies (%v, %v) != direct run (%v, %v)",
				h.ID(), got.FinalTest, got.FinalVal, want.FinalTest, want.FinalVal)
		}
		if h.EpochsDone() != len(want.Epochs) {
			t.Fatalf("session %s epochs-done = %d, want %d", h.ID(), h.EpochsDone(), len(want.Epochs))
		}
	}
}

// waitEpochs polls until the session has completed at least n epochs.
func waitEpochs(t *testing.T, h *SessionHandle, n int) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for h.EpochsDone() < n {
		select {
		case <-deadline:
			t.Fatalf("session %s stuck at %d epochs, want >= %d", h.ID(), h.EpochsDone(), n)
		case <-time.After(time.Millisecond):
		}
	}
}

// longJob is a session that cannot finish within the test's lifetime
// unless canceled.
func longJob() []Option {
	return []Option{
		WithParts(2), WithCodec(CodecSpec{Name: CodecFP32}), WithEpochs(100000),
		WithHidden(8), WithEvalEvery(0),
	}
}

// TestSchedulerCancelStopsTrainingAndFreesSlot cancels a running session
// by id and requires (a) it to stop between epochs with the typed
// ErrCanceled, and (b) its worker slot to go to the queued session, which
// starts next and runs to completion.
func TestSchedulerCancelStopsTrainingAndFreesSlot(t *testing.T) {
	ds := MustLoadDataset("tiny", 0.25)
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(4))

	running, err := sched.Submit(ds, longJob()...)
	if err != nil {
		t.Fatal(err)
	}
	waitEpochs(t, running, 1)

	queued, err := sched.Submit(ds,
		WithParts(2), WithCodec(CodecSpec{Name: CodecFP32}), WithEpochs(2), WithHidden(8), WithEvalEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := queued.Status(); got != SessionQueued {
		t.Fatalf("second session status = %v, want queued", got)
	}

	if !sched.Cancel(running.ID()) {
		t.Fatalf("Cancel(%s) = false for a running session", running.ID())
	}
	if sched.Cancel("job-999") {
		t.Fatal("Cancel of an unknown id reported it as known")
	}
	if _, err := running.Wait(context.Background()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled session error = %v, want ErrCanceled", err)
	}
	if got := running.Status(); got != SessionCanceled {
		t.Fatalf("canceled session status = %v, want canceled", got)
	}
	if done := running.EpochsDone(); done >= 100000 {
		t.Fatalf("canceled session ran all %d epochs", done)
	}

	// The freed slot must let the queued session run to completion.
	res, err := queued.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("queued session recorded %d epochs, want 2", len(res.Epochs))
	}
	c := sched.Counters()
	if c.Canceled != 1 || c.Completed != 1 || c.Started != 2 {
		t.Fatalf("counters = %+v, want 2 started / 1 canceled / 1 completed", c)
	}
}

// runFunc is what the submit seam runs; the fakes below stand in for
// training so admission, cancellation and retention are deterministic.
type runFunc = func(context.Context, *SessionHandle) (*Result, error)

// blockingRun signals the session's id on started (when non-nil), then
// blocks until release is closed or the session is canceled.
func blockingRun(started chan<- string, release <-chan struct{}) runFunc {
	return func(ctx context.Context, h *SessionHandle) (*Result, error) {
		if started != nil {
			started <- h.ID()
		}
		select {
		case <-release:
			return &Result{Dataset: "released"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func instantRun(res *Result) runFunc {
	return func(context.Context, *SessionHandle) (*Result, error) { return res, nil }
}

// newTestScheduler starts a scheduler that is drained when the test ends.
func newTestScheduler(t *testing.T, opts ...SchedulerOption) *Scheduler {
	t.Helper()
	sched, err := NewScheduler(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Drain(context.Background()) })
	return sched
}

func mustSubmit(t *testing.T, sched *Scheduler, run runFunc) *SessionHandle {
	t.Helper()
	h, err := sched.submit(run)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// mustFinish waits for h and requires it to end without error.
func mustFinish(t *testing.T, h *SessionHandle) *Result {
	t.Helper()
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("session %s: %v", h.ID(), err)
	}
	return res
}

func TestSubmitRunsToCompletion(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(2), WithQueueDepth(4))

	want := &Result{Dataset: "fake"}
	h := mustSubmit(t, sched, instantRun(want))
	if res := mustFinish(t, h); res != want {
		t.Fatalf("result = %+v, want %+v", res, want)
	}
	if got := h.Status(); got != SessionDone {
		t.Fatalf("status = %v, want done", got)
	}
	sub, start, fin := h.Times()
	if sub.IsZero() || start.IsZero() || fin.IsZero() {
		t.Fatalf("timestamps not all set: %v %v %v", sub, start, fin)
	}
}

// TestSchedulerQueueFull fills the single worker slot and the queue with
// training sessions, then requires the next Submit to be rejected with the
// typed ErrQueueFull and a drained scheduler to reject with ErrDraining.
func TestSchedulerQueueFull(t *testing.T) {
	ds := MustLoadDataset("tiny", 0.25)
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(1),
		WithRetryAfter(100*time.Millisecond))

	running, err := sched.Submit(ds, longJob()...)
	if err != nil {
		t.Fatal(err)
	}
	waitEpochs(t, running, 1) // the worker slot is now provably occupied
	queued, err := sched.Submit(ds, longJob()...)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sched.Submit(ds, longJob()...); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	if got := sched.RetryAfter(); got != 100*time.Millisecond {
		t.Fatalf("retry-after = %v, want 100ms", got)
	}
	if got := sched.Counters().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	running.Cancel()
	queued.Cancel()
	if err := sched.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Submit(ds, longJob()...); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}
}

// TestQueueFullRejectsWithTypedError fills the single worker slot and the
// queue with fake sessions, then requires the next submission to be
// rejected with the typed ErrQueueFull, the admitted sessions to complete,
// and a drained scheduler to reject with ErrDraining.
func TestQueueFullRejectsWithTypedError(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(1),
		WithRetryAfter(250*time.Millisecond))
	started := make(chan string, 1)
	release := make(chan struct{})

	running := mustSubmit(t, sched, blockingRun(started, release))
	<-started // the worker slot is now provably occupied
	queued := mustSubmit(t, sched, blockingRun(nil, release))

	if _, err := sched.submit(instantRun(nil)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	if got := sched.RetryAfter(); got != 250*time.Millisecond {
		t.Fatalf("retry-after = %v, want 250ms", got)
	}
	if c := sched.Counters(); c.Rejected != 1 || c.Submitted != 2 || c.QueueDepth != 1 || c.Running != 1 {
		t.Fatalf("counters = %+v, want 1 rejected / 2 submitted / 1 queued / 1 running", c)
	}

	close(release)
	mustFinish(t, running)
	mustFinish(t, queued)
	if err := sched.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sched.submit(instantRun(nil)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}
	if got := sched.Counters().Rejected; got != 2 {
		t.Fatalf("rejected counter = %d, want 2", got)
	}
}

// TestCancelRunningFreesSlotForQueued cancels the only running session by
// id and requires the queued one to be the next to start.
func TestCancelRunningFreesSlotForQueued(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(4))
	started := make(chan string, 8)
	release := make(chan struct{})

	first := mustSubmit(t, sched, blockingRun(started, release))
	<-started // first occupies the only worker slot
	second := mustSubmit(t, sched, blockingRun(started, release))
	if got := second.Status(); got != SessionQueued {
		t.Fatalf("second status = %v, want queued", got)
	}

	if !sched.Cancel(first.ID()) {
		t.Fatal("Cancel(first) = false")
	}
	if _, err := first.Wait(context.Background()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled session error = %v, want ErrCanceled", err)
	}
	if got := first.Status(); got != SessionCanceled {
		t.Fatalf("first status = %v, want canceled", got)
	}
	if got := <-started; got != second.ID() {
		t.Fatalf("next started session = %s, want %s", got, second.ID())
	}
	close(release)
	mustFinish(t, second)
	if c := sched.Counters(); c.Started != 2 || c.Canceled != 1 || c.Completed != 1 {
		t.Fatalf("counters = %+v, want 2 started / 1 canceled / 1 completed", c)
	}
}

// TestCancelQueuedSkipsExecution: Cancel on a queued session is its
// terminal transition — status, finish time, ErrCanceled, Done and the
// canceled counter all land before Cancel returns — and no worker runs it.
func TestCancelQueuedSkipsExecution(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(4))
	started := make(chan string, 8)
	release := make(chan struct{})

	running := mustSubmit(t, sched, blockingRun(started, release))
	<-started
	queued := mustSubmit(t, sched, blockingRun(started, release))
	queued.Cancel()

	if got := queued.Status(); got != SessionCanceled {
		t.Fatalf("status after queued cancel = %v, want canceled", got)
	}
	select {
	case <-queued.Done():
	default:
		t.Fatal("Done not closed when Cancel returned")
	}
	if _, start, fin := queued.Times(); !start.IsZero() || fin.IsZero() {
		t.Fatalf("times after queued cancel: started %v finished %v, want zero / set", start, fin)
	}
	if res, err := queued.Result(); res != nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("Result after queued cancel = (%v, %v), want (nil, ErrCanceled)", res, err)
	}
	if c := sched.Counters(); c.Canceled != 1 {
		t.Fatalf("canceled counter = %d right after Cancel, want 1", c.Canceled)
	}
	queued.Cancel() // idempotent on a terminal session
	if c := sched.Counters(); c.Canceled != 1 {
		t.Fatalf("canceled counter = %d after a second Cancel, want 1", c.Canceled)
	}

	close(release)
	mustFinish(t, running)
	if err := sched.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c := sched.Counters(); c.Started != 1 || c.Canceled != 1 || c.Completed != 1 {
		t.Fatalf("counters = %+v, want 1 started / 1 canceled / 1 completed (canceled session must not run)", c)
	}
}

// TestCanceledQueuedSessionFreesSlotAndEvicts: a session canceled while
// queued gives its queue slot back once a worker passes over it, and is
// evictable under the retention bound like any other terminal session.
func TestCanceledQueuedSessionFreesSlotAndEvicts(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(2),
		WithSessionRetention(1, 0))
	started := make(chan string, 1)
	release := make(chan struct{})

	running := mustSubmit(t, sched, blockingRun(started, release))
	<-started // the only worker is now occupied
	q1 := mustSubmit(t, sched, blockingRun(nil, release))
	q2 := mustSubmit(t, sched, blockingRun(nil, release))
	if _, err := sched.submit(instantRun(nil)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	for _, h := range []*SessionHandle{q1, q2} {
		if !sched.Cancel(h.ID()) {
			t.Fatalf("Cancel(%s) = false for a queued session", h.ID())
		}
	}

	// The worker finishes the running session, then passes over both
	// canceled ones; the fresh submission is admitted once it has.
	close(release)
	mustFinish(t, running)
	var fresh *SessionHandle
	deadline := time.After(5 * time.Second)
	for fresh == nil {
		h, err := sched.submit(instantRun(&Result{Dataset: "fresh"}))
		switch {
		case err == nil:
			fresh = h
		case !errors.Is(err, ErrQueueFull):
			t.Fatal(err)
		}
		select {
		case <-deadline:
			t.Fatal("canceled sessions never gave their queue slots back")
		case <-time.After(time.Millisecond):
		}
	}
	mustFinish(t, fresh)
	if c := sched.Counters(); c.Started != 2 || c.Canceled != 2 {
		t.Fatalf("counters = %+v, want 2 started / 2 canceled", c)
	}

	// Four terminal records against a bound of one: only the newest stays,
	// the canceled-while-queued ones included in the eviction.
	for _, h := range []*SessionHandle{running, q1, q2} {
		if _, ok := sched.Session(h.ID()); ok {
			t.Errorf("terminal session %s survived a retention bound of 1", h.ID())
		}
	}
	if _, ok := sched.Session(fresh.ID()); !ok {
		t.Error("newest terminal session was evicted")
	}
}

func TestDrainCompletesInFlightAndRejectsNew(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(4))
	started := make(chan string, 8)
	release := make(chan struct{})

	running := mustSubmit(t, sched, blockingRun(started, release))
	<-started
	queued := mustSubmit(t, sched, blockingRun(started, release))

	drainErr := make(chan error, 1)
	go func() { drainErr <- sched.Drain(context.Background()) }()

	// Drain must reject new work immediately...
	deadline := time.After(5 * time.Second)
	for {
		if _, err := sched.submit(instantRun(nil)); errors.Is(err, ErrDraining) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("submit never returned ErrDraining")
		case <-time.After(time.Millisecond):
		}
	}
	if !sched.Draining() {
		t.Fatal("Draining() = false after ErrDraining")
	}
	// ...while a bounded-context Drain reports the still-running work.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := sched.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded drain error = %v, want deadline exceeded", err)
	}

	// ...and still complete both in-flight sessions.
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatal(err)
	}
	for _, h := range []*SessionHandle{running, queued} {
		if got := h.Status(); got != SessionDone {
			t.Fatalf("session %s status = %v, want done after drain", h.ID(), got)
		}
	}
}

func TestFailedSessionCountsAsFailed(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(1))
	boom := errors.New("boom")
	h := mustSubmit(t, sched, func(context.Context, *SessionHandle) (*Result, error) {
		return nil, boom
	})
	if _, err := h.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if got := h.Status(); got != SessionFailed {
		t.Fatalf("status = %v, want failed", got)
	}
	if c := sched.Counters(); c.Failed != 1 || c.Completed != 0 {
		t.Fatalf("counters = %+v, want 1 failed / 0 completed", c)
	}
}

func TestProgressCounter(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(1))
	h := mustSubmit(t, sched, func(_ context.Context, h *SessionHandle) (*Result, error) {
		for i := int64(1); i <= 3; i++ {
			h.epochs.Store(i)
		}
		return &Result{}, nil
	})
	mustFinish(t, h)
	if got := h.EpochsDone(); got != 3 {
		t.Fatalf("epochs done = %d, want 3", got)
	}
}

func TestSessionsListedInSubmissionOrder(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(8))
	var ids []string
	for i := 0; i < 3; i++ {
		h := mustSubmit(t, sched, instantRun(&Result{}))
		ids = append(ids, h.ID())
		mustFinish(t, h)
	}
	listed := sched.Sessions()
	if len(listed) != len(ids) {
		t.Fatalf("listed %d sessions, want %d", len(listed), len(ids))
	}
	for i, h := range listed {
		if h.ID() != ids[i] {
			t.Fatalf("listed[%d] = %s, want %s", i, h.ID(), ids[i])
		}
	}
	if h, ok := sched.Session(ids[1]); !ok || h != listed[1] {
		t.Fatalf("Session(%s) = (%v, %v), want the listed handle", ids[1], h, ok)
	}
	if _, ok := sched.Session("job-999"); ok {
		t.Fatal("Session(job-999) unexpectedly found")
	}
}

// TestSchedulerRetentionAndRemoveSemantics checks the retention bound and
// the terminal-only Remove contract on training sessions through the
// public API.
func TestSchedulerRetentionAndRemoveSemantics(t *testing.T) {
	ds := MustLoadDataset("tiny", 0.25)
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(4),
		WithSessionRetention(1, 0))

	short := []Option{
		WithParts(2), WithCodec(CodecSpec{Name: CodecFP32}), WithEpochs(1),
		WithHidden(8), WithEvalEvery(0),
	}
	var handles []*SessionHandle
	for i := 0; i < 3; i++ {
		h, err := sched.Submit(ds, short...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if got := len(sched.Sessions()); got != 1 {
		t.Fatalf("retained %d sessions under a retention bound of 1, want 1", got)
	}
	if _, ok := sched.Session(handles[0].ID()); ok {
		t.Error("oldest terminal session survived the retention bound")
	}

	running, err := sched.Submit(ds, longJob()...)
	if err != nil {
		t.Fatal(err)
	}
	waitEpochs(t, running, 1)
	if known, err := sched.Remove(running.ID()); !known || !errors.Is(err, ErrSessionNotTerminal) {
		t.Fatalf("Remove(running) = (%v, %v), want (true, ErrSessionNotTerminal)", known, err)
	}
	running.Cancel()
	if _, err := running.Wait(context.Background()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled session error = %v, want ErrCanceled", err)
	}
	if known, _ := sched.Remove("job-999"); known {
		t.Error("Remove of an unknown id reported it as known")
	}
}

// TestRetentionBoundsTerminalSessions checks the retention count bound:
// the oldest terminal records go first and live sessions never count.
func TestRetentionBoundsTerminalSessions(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(8),
		WithSessionRetention(2, 0))

	var finished []*SessionHandle
	for i := 0; i < 4; i++ {
		h := mustSubmit(t, sched, instantRun(&Result{}))
		mustFinish(t, h)
		finished = append(finished, h)
	}
	// A fifth submission triggers eviction of the oldest terminal records.
	started := make(chan string, 1)
	release := make(chan struct{})
	running := mustSubmit(t, sched, blockingRun(started, release))
	<-started
	for _, h := range finished[:2] {
		if _, ok := sched.Session(h.ID()); ok {
			t.Errorf("old terminal session %s survived a retention bound of 2", h.ID())
		}
	}
	if _, ok := sched.Session(finished[3].ID()); !ok {
		t.Errorf("newest terminal session %s was evicted", finished[3].ID())
	}
	if got := len(sched.Sessions()); got != 3 {
		t.Errorf("retained %d sessions, want 2 terminal + 1 running = 3", got)
	}
	close(release)
	mustFinish(t, running)
}

// TestRemoveTerminalOnly checks that Remove refuses a live session, drops
// a terminal one the moment Wait has returned, and forgets its id.
func TestRemoveTerminalOnly(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(4))
	started := make(chan string, 1)
	release := make(chan struct{})
	done := mustSubmit(t, sched, instantRun(&Result{}))
	mustFinish(t, done)
	running := mustSubmit(t, sched, blockingRun(started, release))
	<-started

	if known, err := sched.Remove(running.ID()); !known || !errors.Is(err, ErrSessionNotTerminal) {
		t.Fatalf("Remove(running) = (%v, %v), want (true, ErrSessionNotTerminal)", known, err)
	}
	running.Cancel()
	if _, err := running.Wait(context.Background()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled session error = %v, want ErrCanceled", err)
	}
	// Terminal once Wait returns: Remove needs no further wait.
	if known, err := sched.Remove(running.ID()); !known || err != nil {
		t.Fatalf("Remove(canceled) = (%v, %v), want (true, nil)", known, err)
	}
	if _, ok := sched.Session(running.ID()); ok {
		t.Error("removed session still retrievable")
	}
	if known, _ := sched.Remove(running.ID()); known {
		t.Error("second Remove reported the id as known")
	}
	if known, _ := sched.Remove("job-999"); known {
		t.Error("Remove of an unknown id reported it as known")
	}
	if got := len(sched.Sessions()); got != 1 {
		t.Errorf("retained %d sessions after Remove, want 1", got)
	}
}

func TestRetentionNeverEvictsLiveSessions(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(8),
		WithSessionRetention(-1, time.Nanosecond))
	started := make(chan string, 1)
	release := make(chan struct{})
	running := mustSubmit(t, sched, blockingRun(started, release))
	<-started
	queued := mustSubmit(t, sched, blockingRun(nil, release))
	time.Sleep(2 * time.Millisecond) // far past the TTL
	if _, ok := sched.Session(running.ID()); !ok {
		t.Error("running session evicted by TTL")
	}
	if _, ok := sched.Session(queued.ID()); !ok {
		t.Error("queued session evicted by TTL")
	}
	close(release)
	mustFinish(t, running)
	mustFinish(t, queued)
}

func TestRetentionTTLEvictsOnAccess(t *testing.T) {
	sched := newTestScheduler(t, WithMaxConcurrentSessions(1), WithQueueDepth(4),
		WithSessionRetention(0, 5*time.Millisecond))
	h := mustSubmit(t, sched, instantRun(&Result{}))
	mustFinish(t, h)
	if _, ok := sched.Session(h.ID()); !ok {
		t.Fatal("terminal session gone before its TTL")
	}
	time.Sleep(10 * time.Millisecond)
	if _, ok := sched.Session(h.ID()); ok {
		t.Error("terminal session survived past its TTL")
	}
	if got := len(sched.Sessions()); got != 0 {
		t.Errorf("%d sessions listed after TTL expiry, want 0", got)
	}
}

// TestSchedulerManyConcurrentJobs drives >100 fixed-seed sessions from
// concurrent clients (with back-off on ErrQueueFull) through a small pool —
// the acceptance load shape, and the -race coverage for the serving path.
func TestSchedulerManyConcurrentJobs(t *testing.T) {
	const (
		clients       = 10
		jobsPerClient = 11 // 110 sessions total
	)
	ds := MustLoadDataset("tiny", 0.25)
	sched, err := NewScheduler(WithMaxConcurrentSessions(4), WithQueueDepth(8),
		WithRetryAfter(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, clients*jobsPerClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := 0; i < jobsPerClient; i++ {
				for {
					h, err := sched.Submit(ds,
						WithParts(2), WithCodec(CodecSpec{Name: CodecFP32}), WithEpochs(1),
						WithHidden(8), WithEvalEvery(0),
						WithSeed(uint64(client*jobsPerClient+i+1)))
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(sched.RetryAfter())
						continue
					}
					if err != nil {
						errc <- err
						return
					}
					if _, err := h.Wait(context.Background()); err != nil {
						errc <- err
					}
					break
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := sched.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := sched.Counters()
	if want := int64(clients * jobsPerClient); c.Completed != want {
		t.Fatalf("completed = %d, want %d (counters %+v)", c.Completed, want, c)
	}
	if c.Failed != 0 || c.Canceled != 0 {
		t.Fatalf("unexpected failures/cancellations: %+v", c)
	}
	if got := len(sched.Sessions()); got != clients*jobsPerClient {
		t.Fatalf("sessions listed = %d, want %d", got, clients*jobsPerClient)
	}
}

// TestJobSpecOptionsMatchExplicit ensures the declarative JobSpec produces
// the same resolved settings as hand-built options — the one-helper
// guarantee that keeps cmd/adaqp flags and cmd/adaqpd job JSON aligned.
func TestJobSpecOptionsMatchExplicit(t *testing.T) {
	dropout, lambda, evalEvery := 0.0, 0.25, 0
	spec := JobSpec{
		Dataset: "tiny", Scale: 0.5,
		Model: "sage", Codec: CodecUniform,
		Transport: TransportProcSharded, Workers: 2, Overlap: true,
		Parts: 3, Epochs: 9, Layers: 2, Hidden: 24, LR: 0.02,
		Dropout: &dropout, Lambda: &lambda, EvalEvery: &evalEvery,
		GroupSize: 50, ReassignPeriod: 7, UniformBits: 4, Seed: 11,
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	got := defaultSettings()
	if err := got.apply(opts); err != nil {
		t.Fatal(err)
	}

	explicit := defaultSettings()
	if err := explicit.apply([]Option{
		WithModel(GraphSAGE), WithCodec(CodecSpec{Name: CodecUniform, UniformBits: 4}),
		WithTransport(TransportSpec{Name: TransportProcSharded, Workers: 2, Overlap: true}),
		WithParts(3), WithEpochs(9), WithLayers(2), WithHidden(24), WithLR(0.02),
		WithDropout(0), WithLambda(0.25), WithEvalEvery(0),
		WithGroupSize(50), WithReassignPeriod(7), WithSeed(11),
	}); err != nil {
		t.Fatal(err)
	}
	// settings holds func fields (nil in both), so compare via DeepEqual.
	if !reflect.DeepEqual(got, explicit) {
		t.Fatalf("spec-derived settings\n%+v\n!= explicit settings\n%+v", got, explicit)
	}

	// Unknown registry names fail with the registry error, not at run time.
	if _, err := (JobSpec{Dataset: "tiny", Codec: "no-such"}).Options(); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := (JobSpec{Dataset: "tiny", Transport: "no-such"}).Options(); err == nil {
		t.Fatal("unknown transport accepted")
	}
	if _, err := (JobSpec{}).Load(); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

// TestSubmitSpecCeilingsComeFirst: a spec past the parts or workers
// ceiling is refused by name before its dataset is resolved — the unknown
// dataset below would fail too, but the ceiling must answer first — and
// before any deployment or worker process exists.
func TestSubmitSpecCeilingsComeFirst(t *testing.T) {
	sched := newTestScheduler(t)
	for field, spec := range map[string]JobSpec{
		"parts 70000": {Dataset: "no-such", Parts: 70000},
		"workers 65":  {Dataset: "no-such", Transport: TransportProcSharded, Workers: 65},
		"bits 258":    {Dataset: "no-such", UniformBits: 258},
		"lr +Inf":     {Dataset: "no-such", LR: 1e40},
	} {
		_, err := sched.SubmitSpec(spec)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error %v does not name the field", field, err)
		}
	}
	if n := len(sched.Sessions()); n != 0 {
		t.Errorf("%d sessions admitted, want 0", n)
	}
}

// TestDatasetCacheIsBounded: a stream of distinct scales leaves at most
// maxCachedDatasets datasets cached, and every call still resolves the
// dataset at its own scale.
func TestDatasetCacheIsBounded(t *testing.T) {
	sched := newTestScheduler(t)
	for i := 0; i < 3*maxCachedDatasets; i++ {
		spec := JobSpec{Dataset: "tiny", Scale: 1 + 0.25*float64(i)}
		ds, err := sched.dataset(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := MustLoadDataset("tiny", spec.Scale); ds.NumNodes() != want.NumNodes() {
			t.Fatalf("scale %v: %d nodes, want %d", spec.Scale, ds.NumNodes(), want.NumNodes())
		}
		if n := len(sched.dsCache); n > maxCachedDatasets {
			t.Fatalf("after %d scales the cache holds %d datasets, cap %d", i+1, n, maxCachedDatasets)
		}
	}
}

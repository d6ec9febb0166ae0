package adaqp

import (
	"context"
	"errors"
	"reflect"
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
		WithMethod(AdaQP),
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
		WithParts(2), WithMethod(Vanilla), WithEpochs(100000),
		WithHidden(8), WithEvalEvery(0),
	}
}

// TestSchedulerCancelStopsTrainingAndFreesSlot cancels a running session
// and requires (a) it to stop between epochs with the typed ErrCanceled,
// and (b) its worker slot to go to a queued session.
func TestSchedulerCancelStopsTrainingAndFreesSlot(t *testing.T) {
	ds := MustLoadDataset("tiny", 0.25)
	sched, err := NewScheduler(WithMaxConcurrentSessions(1), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Drain(context.Background())

	running, err := sched.Submit(ds, longJob()...)
	if err != nil {
		t.Fatal(err)
	}
	waitEpochs(t, running, 1)

	queued, err := sched.Submit(ds,
		WithParts(2), WithMethod(Vanilla), WithEpochs(2), WithHidden(8), WithEvalEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := queued.Status(); got != SessionQueued {
		t.Fatalf("second session status = %v, want queued", got)
	}

	running.Cancel()
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
	if c.Canceled != 1 || c.Completed != 1 {
		t.Fatalf("counters = %+v, want 1 canceled / 1 completed", c)
	}
}

// TestSchedulerQueueFull fills the single worker slot and the queue, then
// requires the next submission to be rejected with the typed ErrQueueFull.
func TestSchedulerQueueFull(t *testing.T) {
	ds := MustLoadDataset("tiny", 0.25)
	sched, err := NewScheduler(
		WithMaxConcurrentSessions(1), WithQueueDepth(1),
		WithRetryAfter(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

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
	// Draining scheduler rejects new work with the typed error.
	if _, err := sched.Submit(ds, longJob()...); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
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
						WithParts(2), WithMethod(Vanilla), WithEpochs(1),
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
		Model: "sage", Method: "uniform", Codec: CodecUniform,
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
		WithModel(GraphSAGE), WithMethod(AdaQPUniform),
		WithCodec(CodecSpec{Name: CodecUniform, UniformBits: 4}),
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
	if _, err := (JobSpec{Dataset: "tiny", Method: "no-such"}).Options(); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := (JobSpec{}).Load(); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

package adaqp

import (
	"context"
	"testing"
)

// TestSchedulerChaosJobAccumulatesFaultTotals submits a JobSpec carrying a
// chaos block and requires the scheduler's lifetime fault counters to
// reflect the run — and to survive the session's removal, which is what
// keeps daemon metrics monotonic under bounded retention.
func TestSchedulerChaosJobAccumulatesFaultTotals(t *testing.T) {
	sched, err := NewScheduler(WithMaxConcurrentSessions(1), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Drain(context.Background())

	evalEvery := 0
	spec := JobSpec{
		Dataset: "tiny", Scale: 0.25,
		Method: "vanilla", Parts: 2, Epochs: 4, Hidden: 8,
		EvalEvery: &evalEvery, Seed: 7,
		Chaos: &FaultSpec{
			Seed: 3, Stragglers: 1, SlowFactor: 3,
			FailRate: 0.3, MaxRetries: 2, Backoff: 0.01,
			CrashEpoch: 2, RestartPenalty: 10,
		},
	}
	h, err := sched.SubmitSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Stragglers != 1 || res.Faults.Crashes != 1 {
		t.Fatalf("run faults = %+v, want 1 straggler and 1 crash", res.Faults)
	}
	if res.Faults.Retries == 0 || res.Faults.RetryTime <= 0 {
		t.Fatalf("run faults = %+v, want retries charged under FailRate 0.3", res.Faults)
	}

	totals := sched.FaultTotals()
	if totals != res.Faults {
		t.Fatalf("FaultTotals = %+v, want the single run's %+v", totals, res.Faults)
	}

	// Removing the terminal session must not lose the accumulated totals.
	if known, err := sched.Remove(h.ID()); !known || err != nil {
		t.Fatalf("Remove(terminal) = (%v, %v), want (true, nil)", known, err)
	}
	if _, ok := sched.Session(h.ID()); ok {
		t.Error("removed session still retrievable")
	}
	if got := sched.FaultTotals(); got != totals {
		t.Fatalf("FaultTotals after Remove = %+v, want unchanged %+v", got, totals)
	}
}

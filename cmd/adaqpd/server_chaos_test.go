package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/pkg/adaqp"
)

// chaosTinyJob is tinyJob plus an explicit chaos block: one 3× compute
// straggler, transient failures with retries, and a crash at epoch 1.
const chaosTinyJob = `{"dataset":"tiny","scale":0.25,"parts":2,"codec":"fp32","epochs":3,
	"hidden":8,"eval_every":0,"seed":7,
	"chaos":{"seed":3,"stragglers":1,"slow_factor":3,"fail_rate":0.3,"max_retries":2,
	         "backoff_s":0.01,"crash_epoch":1,"restart_penalty_s":10}}`

// TestChaosJobSurfacesFaultMetrics submits a job with a chaos block and
// requires the injected faults to land in the daemon's /metrics.
func TestChaosJobSurfacesFaultMetrics(t *testing.T) {
	ts, _ := testServer(t, adaqp.WithMaxConcurrentSessions(1))
	resp, job := postJob(t, ts, chaosTinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	final := waitTerminal(t, ts, job.ID)
	if final.Status != "done" {
		t.Fatalf("status = %q (error %q), want done", final.Status, final.Error)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"adaqpd_fault_stragglers_total 1",
		"adaqpd_fault_crashes_total 1",
		"adaqpd_fault_recovery_seconds_total 10",
		"# TYPE adaqpd_fault_retries_total counter",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestDefaultChaosAppliesToPlainJobs configures a server-wide default
// fault plan and requires a chaos-less submission to train under it.
func TestDefaultChaosAppliesToPlainJobs(t *testing.T) {
	sched, err := adaqp.NewScheduler(adaqp.WithMaxConcurrentSessions(1))
	if err != nil {
		t.Fatal(err)
	}
	api := newServer(sched)
	api.chaos = &adaqp.FaultSpec{Seed: 3, Stragglers: 1, SlowFactor: 3}
	ts := httptest.NewServer(api.handler())
	t.Cleanup(ts.Close)

	resp, job := postJob(t, ts, tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if final := waitTerminal(t, ts, job.ID); final.Status != "done" {
		t.Fatalf("status = %q (error %q), want done", final.Status, final.Error)
	}
	if got := sched.FaultTotals().Stragglers; got != 1 {
		t.Fatalf("fault totals stragglers = %d, want 1 from the default plan", got)
	}
}

// TestDeleteRemovesTerminalRecord checks the terminal DELETE behavior: the
// session's record is removed (200 with removed:true), and a subsequent
// GET is a 404. (Live-session DELETE → 202 cancel is covered by
// TestQueueFullReturns429WithRetryAfter.)
func TestDeleteRemovesTerminalRecord(t *testing.T) {
	ts, _ := testServer(t, adaqp.WithMaxConcurrentSessions(1))
	_, job := postJob(t, ts, tinyJob)
	waitTerminal(t, ts, job.ID)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE terminal job = %d (%s), want 200", resp.StatusCode, body)
	}
	var doc jobJSON
	if err := json.Unmarshal(body, &doc); err != nil || !doc.Removed {
		t.Fatalf("DELETE response = %s, want removed:true", body)
	}
	if resp := getJSON(t, ts.URL+"/jobs/"+job.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET removed job = %d, want 404", resp.StatusCode)
	}
}

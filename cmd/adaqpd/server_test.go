package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/adaqp"
)

func testServer(t *testing.T, opts ...adaqp.SchedulerOption) (*httptest.Server, *adaqp.Scheduler) {
	t.Helper()
	sched, err := adaqp.NewScheduler(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(sched).handler())
	t.Cleanup(ts.Close)
	return ts, sched
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (*http.Response, jobJSON) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var job jobJSON
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatalf("submit response %q: %v", body, err)
		}
	}
	return resp, job
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("response %q: %v", body, err)
		}
	}
	return resp
}

// tinyJob is a fast fixed-seed job spec (a few ms of training).
const tinyJob = `{"dataset":"tiny","scale":0.25,"parts":2,"codec":"fp32","epochs":2,"hidden":8,"eval_every":0}`

// longJob cannot finish within the test unless canceled.
const longJob = `{"dataset":"tiny","scale":0.25,"parts":2,"codec":"fp32","epochs":100000,"hidden":8,"eval_every":0}`

func waitTerminal(t *testing.T, ts *httptest.Server, id string) jobJSON {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		var job jobJSON
		resp := getJSON(t, ts.URL+"/jobs/"+id, &job)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, resp.StatusCode)
		}
		switch job.Status {
		case "done", "failed", "canceled":
			return job
		}
		select {
		case <-deadline:
			t.Fatalf("job %s stuck at %q", id, job.Status)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func TestSubmitPollResultRoundTrip(t *testing.T) {
	ts, _ := testServer(t, adaqp.WithMaxConcurrentSessions(2))

	resp, job := postJob(t, ts, tinyJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	// A free worker may pick the job up before the 202 body is rendered
	// (seen under -race), so "running" is as valid an answer as "queued".
	if job.ID == "" || (job.Status != "queued" && job.Status != "running") {
		t.Fatalf("submit response = %+v", job)
	}

	final := waitTerminal(t, ts, job.ID)
	if final.Status != "done" {
		t.Fatalf("final status = %q (error %q), want done", final.Status, final.Error)
	}
	if final.EpochsDone != 2 {
		t.Fatalf("epochs_done = %d, want 2", final.EpochsDone)
	}
	if final.Submitted == "" || final.Started == "" || final.Finished == "" {
		t.Fatalf("missing timestamps: %+v", final)
	}

	var res resultJSON
	if resp := getJSON(t, ts.URL+"/jobs/"+job.ID+"/result", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d, want 200", resp.StatusCode)
	}
	if res.Dataset != "tiny" || res.Codec != "fp32" ||
		res.Parts != 2 || res.Epochs != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.FinalLoss == 0 || res.WallClock == 0 {
		t.Fatalf("result missing measurements: %+v", res)
	}

	// The job list includes it.
	var list struct {
		Jobs []jobJSON `json:"jobs"`
	}
	if resp := getJSON(t, ts.URL+"/jobs", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _ := testServer(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"malformed JSON", `{"dataset":`},
		{"unknown field", `{"dataset":"tiny","no_such_field":1}`},
		{"unknown dataset", `{"dataset":"no-such"}`},
		{"unknown codec", `{"dataset":"tiny","codec":"no-such"}`},
		{"unknown transport", `{"dataset":"tiny","transport":"no-such"}`},
		{"unknown method", `{"dataset":"tiny","method":"no-such"}`},
		{"missing dataset", `{}`},
		{"invalid epochs", `{"dataset":"tiny","epochs":-3}`},
		{"garbage after the spec", tinyJob + ` x`},
		{"second spec after the spec", tinyJob + "\n" + tinyJob},
	} {
		resp, _ := postJob(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if resp, _ := postJob(t, ts, tinyJob+" \n\t"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("trailing whitespace: status = %d, want 202", resp.StatusCode)
	}
}

// TestRemovedSpecFieldIs400: a field the spec no longer has is refused by
// name, never silently ignored.
func TestRemovedSpecFieldIs400(t *testing.T) {
	ts, sched := testServer(t)
	for field, body := range map[string]string{
		"density":   `{"dataset":"tiny","codec":"uniform","density":0.1}`,
		"staleness": `{"dataset":"tiny","transport":"inprocess","staleness":4}`,
	} {
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", field, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), `unknown field \"`+field+`\"`) {
			t.Errorf("%s: error body %q does not name the unknown field", field, rec.Body.String())
		}
	}
	if n := len(sched.Sessions()); n != 0 {
		t.Errorf("%d sessions admitted, want 0", n)
	}
}

// TestBadScaleIs400: a negative scale is refused with an error naming it,
// never trained at full size under a cache entry of its own.
func TestBadScaleIs400(t *testing.T) {
	ts, sched := testServer(t)
	rec := httptest.NewRecorder()
	body := `{"dataset":"tiny","scale":-3,"parts":2,"epochs":1,"hidden":8}`
	ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "scale -3") {
		t.Errorf("error body %q does not name the scale", rec.Body.String())
	}
	if n := len(sched.Sessions()); n != 0 {
		t.Errorf("%d sessions admitted, want 0", n)
	}
}

// TestPartsCeilingIs400: a spec past the parts ceiling is refused by name
// at admission, before any dataset, deployment or worker process exists.
func TestPartsCeilingIs400(t *testing.T) {
	ts, sched := testServer(t)
	rec := httptest.NewRecorder()
	body := `{"dataset":"tiny","parts":65535,"transport":"proc-sharded"}`
	ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "parts 65535") {
		t.Errorf("error body %q does not name the parts", rec.Body.String())
	}
	if n := len(sched.Sessions()); n != 0 {
		t.Errorf("%d sessions admitted, want 0", n)
	}
}

// TestOversizedSpecIs413: the body is capped before decoding, wherever the
// excess sits — inside the spec or as padding after it.
func TestOversizedSpecIs413(t *testing.T) {
	ts, sched := testServer(t)
	pad := strings.Repeat(" ", 2<<20)
	for name, body := range map[string]string{
		"2 MiB string field": `{"dataset":"` + strings.Repeat("a", 2<<20) + `"}`,
		"2 MiB of padding":   tinyJob + pad,
	} {
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", name, rec.Code)
		}
	}
	if n := len(sched.Sessions()); n != 0 {
		t.Errorf("%d sessions admitted from oversized bodies, want 0", n)
	}
}

func TestQueueFullReturns429WithRetryAfter(t *testing.T) {
	ts, _ := testServer(t,
		adaqp.WithMaxConcurrentSessions(1),
		adaqp.WithQueueDepth(1),
		adaqp.WithRetryAfter(3*time.Second))

	// Occupy the only worker slot (wait for the job to actually start so
	// the queue is provably empty again), then fill the queue.
	_, running := postJob(t, ts, longJob)
	waitRunning(t, ts, running.ID)
	resp, queued := postJob(t, ts, longJob)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", resp.StatusCode)
	}

	resp, _ = postJob(t, ts, longJob)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	// The hint is jittered over [base, 2·base] so herds of rejected
	// clients don't retry in lockstep.
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 3 || secs > 6 {
		t.Fatalf("Retry-After = %q, want an integer in [3, 6]", resp.Header.Get("Retry-After"))
	}

	// DELETE both; the canceled sessions report the typed cancellation.
	for _, id := range []string{running.ID, queued.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("DELETE %s = %d, want 202", id, resp.StatusCode)
		}
		final := waitTerminal(t, ts, id)
		if final.Status != "canceled" {
			t.Fatalf("job %s final status = %q, want canceled", id, final.Status)
		}
	}

	// A canceled job has no result document.
	if resp := getJSON(t, ts.URL+"/jobs/"+running.ID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job = %d, want 409", resp.StatusCode)
	}
}

func waitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		var job jobJSON
		getJSON(t, ts.URL+"/jobs/"+id, &job)
		if job.Status == "running" && job.EpochsDone >= 1 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %s never started (status %q)", id, job.Status)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func TestUnknownJobIs404(t *testing.T) {
	ts, _ := testServer(t)
	if resp := getJSON(t, ts.URL+"/jobs/job-999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status of unknown job = %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/jobs/job-999/result", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("result of unknown job = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/job-999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d, want 404", resp.StatusCode)
	}
}

func TestResultBeforeTerminalIs409(t *testing.T) {
	ts, _ := testServer(t, adaqp.WithMaxConcurrentSessions(1))
	_, job := postJob(t, ts, longJob)
	if resp := getJSON(t, ts.URL+"/jobs/"+job.ID+"/result", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job = %d, want 409", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitTerminal(t, ts, job.ID)
}

func TestHealthzAndMetricsAndDrain(t *testing.T) {
	ts, sched := testServer(t, adaqp.WithMaxConcurrentSessions(2))

	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	_, job := postJob(t, ts, tinyJob)
	waitTerminal(t, ts, job.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	for _, want := range []string{
		"adaqpd_sessions_submitted_total 1",
		"adaqpd_sessions_started_total 1",
		"adaqpd_sessions_completed_total 1",
		"adaqpd_sessions_rejected_total 0",
		"adaqpd_queue_depth 0",
		"adaqpd_sessions_running 0",
		"# TYPE adaqpd_queue_depth gauge",
		"# TYPE adaqpd_sessions_completed_total counter",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}

	// An overlap-scheduled SANCUS job must surface its hidden wire time in
	// the monotonic overlap counter and in /metrics.
	overlapJob := `{"dataset":"tiny","scale":0.25,"parts":2,"codec":"sancus","epochs":2,
		"hidden":8,"eval_every":0,"transport":"inprocess","overlap":true}`
	_, job = postJob(t, ts, overlapJob)
	if final := waitTerminal(t, ts, job.ID); final.Status != "done" {
		t.Fatalf("overlap job status = %q (error %q), want done", final.Status, final.Error)
	}
	if got := sched.OverlapTotal(); got <= 0 {
		t.Fatalf("OverlapTotal = %v after an overlap-scheduled session, want > 0", got)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte("adaqpd_overlap_seconds_total")) ||
		bytes.Contains(body, []byte("adaqpd_overlap_seconds_total 0\n")) {
		t.Errorf("metrics output missing a positive adaqpd_overlap_seconds_total:\n%s", body)
	}

	// Draining flips healthz to 503 and submissions to 503.
	if err := sched.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	resp2, _ := postJob(t, ts, tinyJob)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("draining rejection missing Retry-After")
	}
}

// TestSpecFieldsReachTraining submits a spec exercising non-default codec
// and transport fields and verifies they reach the run via the result doc.
func TestSpecFieldsReachTraining(t *testing.T) {
	ts, _ := testServer(t, adaqp.WithMaxConcurrentSessions(1))
	spec := `{"dataset":"tiny","scale":0.25,"parts":2,"codec":"uniform",
	          "bits":4,"transport":"inprocess","workers":2,"epochs":2,"hidden":8,"eval_every":0,"seed":3}`
	resp, job := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	final := waitTerminal(t, ts, job.ID)
	if final.Status != "done" {
		t.Fatalf("status = %q (error %q), want done", final.Status, final.Error)
	}
	var res resultJSON
	getJSON(t, ts.URL+"/jobs/"+job.ID+"/result", &res)
	if res.Codec != "uniform" {
		t.Fatalf("codec = %q, want uniform (spec field lost?)", res.Codec)
	}
}

// TestStatusDocumentsCarryTimestamps queues many 1-epoch jobs behind a
// long one, cancels every fourth while it is queued, then releases the
// queue and polls every job in a tight loop. Every done, failed or
// canceled document must carry finished_at and every running or done one
// started_at: a client timing a job from its last status document must
// never find a terminal status without its finish time.
func TestStatusDocumentsCarryTimestamps(t *testing.T) {
	const jobs, pollers = 32, 4
	ts, _ := testServer(t, adaqp.WithMaxConcurrentSessions(1), adaqp.WithQueueDepth(jobs))
	oneEpoch := `{"dataset":"tiny","scale":0.25,"parts":2,"codec":"fp32","epochs":1,"hidden":8,"eval_every":0}`

	check := func(doc jobJSON, where string) {
		terminal := doc.Status == "done" || doc.Status == "failed" || doc.Status == "canceled"
		if terminal && doc.Finished == "" {
			t.Errorf("%s: %s document without finished_at: %+v", where, doc.Status, doc)
		}
		if (doc.Status == "running" || doc.Status == "done") && doc.Started == "" {
			t.Errorf("%s: %s document without started_at: %+v", where, doc.Status, doc)
		}
	}
	del := func(id string) jobJSON {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc jobJSON
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		check(doc, "DELETE")
		return doc
	}

	_, blocker := postJob(t, ts, longJob)
	waitRunning(t, ts, blocker.ID)
	ids := []string{blocker.ID}
	for i := 0; i < jobs; i++ {
		resp, job := postJob(t, ts, oneEpoch)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i, resp.StatusCode)
		}
		check(job, "POST")
		if i%4 == 3 {
			if doc := del(job.ID); doc.Status != "canceled" {
				t.Fatalf("DELETE of queued job %s left it %q, want canceled", job.ID, doc.Status)
			}
		}
		ids = append(ids, job.ID)
	}

	queue := make(chan string, len(ids))
	for _, id := range ids {
		queue <- id
	}
	close(queue)
	var wg sync.WaitGroup
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range queue {
				deadline := time.Now().Add(30 * time.Second)
				for {
					resp, err := http.Get(ts.URL + "/jobs/" + id)
					if err != nil {
						t.Error(err)
						return
					}
					var doc jobJSON
					err = json.NewDecoder(resp.Body).Decode(&doc)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("GET /jobs/%s = %d: %v", id, resp.StatusCode, err)
						return
					}
					check(doc, "GET")
					if doc.Status != "queued" && doc.Status != "running" {
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("job %s stuck at %q", id, doc.Status)
						return
					}
				}
			}
		}()
	}
	del(blocker.ID) // releases the queue while the pollers watch
	wg.Wait()
}

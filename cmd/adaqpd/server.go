package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/pkg/adaqp"
)

// server is the HTTP/JSON surface over one adaqp.Scheduler. It is
// constructed separately from main so the full API is testable with
// net/http/httptest.
type server struct {
	sched *adaqp.Scheduler

	// chaos, when non-nil, is the daemon-wide default fault plan (-chaos
	// flag): applied to submitted jobs that carry no chaos block of their
	// own, so a whole deployment can be soak-tested without touching
	// clients.
	chaos *adaqp.FaultSpec
}

func newServer(sched *adaqp.Scheduler) *server { return &server{sched: sched} }

// handler routes the daemon's API:
//
//	POST   /jobs            submit a JobSpec          202 | 400 | 413 | 429 | 503
//	GET    /jobs            list sessions             200
//	GET    /jobs/{id}       one session's status      200 | 404
//	GET    /jobs/{id}/result  finished session metrics  200 | 404 | 409
//	DELETE /jobs/{id}       cancel, or remove a terminal record  202 | 200 | 404
//	GET    /healthz         liveness (503 once draining)
//	GET    /metrics         Prometheus text format
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.submit)
	mux.HandleFunc("GET /jobs", s.list)
	mux.HandleFunc("GET /jobs/{id}", s.status)
	mux.HandleFunc("GET /jobs/{id}/result", s.result)
	mux.HandleFunc("DELETE /jobs/{id}", s.cancel)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /metrics", s.metrics)
	return mux
}

// jobJSON is one session's status document.
type jobJSON struct {
	ID         string `json:"id"`
	Status     string `json:"status"`
	EpochsDone int    `json:"epochs_done"`
	Submitted  string `json:"submitted_at"`
	Started    string `json:"started_at,omitempty"`
	Finished   string `json:"finished_at,omitempty"`
	Error      string `json:"error,omitempty"`
	Removed    bool   `json:"removed,omitempty"`
}

// resultJSON summarizes a finished run's measurements.
type resultJSON struct {
	ID         string  `json:"id"`
	Dataset    string  `json:"dataset"`
	Model      string  `json:"model"`
	Codec      string  `json:"codec"`
	Parts      int     `json:"parts"`
	Epochs     int     `json:"epochs"`
	FinalLoss  float64 `json:"final_loss"`
	FinalVal   float64 `json:"final_val,omitempty"`
	FinalTest  float64 `json:"final_test"`
	WallClock  float64 `json:"wall_clock_s"`
	AssignTime float64 `json:"assign_s"`
	Throughput float64 `json:"throughput_epochs_per_s"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func timeRFC(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// sessionJSON builds the status document from one status read, taken
// first: a session is terminal only once its finish is recorded, so the
// timestamps read after a terminal status always include the finish time.
func sessionJSON(h *adaqp.SessionHandle) jobJSON {
	st := h.Status()
	sub, start, fin := h.Times()
	j := jobJSON{
		ID:         h.ID(),
		Status:     st.String(),
		EpochsDone: h.EpochsDone(),
		Submitted:  timeRFC(sub),
		Started:    timeRFC(start),
		Finished:   timeRFC(fin),
	}
	if st == adaqp.SessionFailed || st == adaqp.SessionCanceled {
		if _, err := h.Result(); err != nil {
			j.Error = err.Error()
		}
	}
	return j
}

// maxJobBody caps a POST /jobs body. Real specs are a few hundred bytes.
const maxJobBody = 1 << 20

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var spec adaqp.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	if err == nil {
		// The spec must be the whole body: after it only EOF is acceptable.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("unexpected data after the spec")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "job spec exceeds %d bytes", tooLarge.Limit)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	if spec.Chaos == nil && s.chaos != nil {
		c := *s.chaos
		spec.Chaos = &c
	}
	h, err := s.sched.SubmitSpec(spec)
	switch {
	case errors.Is(err, adaqp.ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterJittered(s.sched.RetryAfter()))
		writeError(w, http.StatusTooManyRequests, "session queue full, retry later")
		return
	case errors.Is(err, adaqp.ErrDraining):
		w.Header().Set("Retry-After", retryAfterSeconds(s.sched.RetryAfter()))
		writeError(w, http.StatusServiceUnavailable, "scheduler draining, not accepting jobs")
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, sessionJSON(h))
}

// retryAfterSeconds renders a Retry-After header value (integral seconds,
// minimum 1 — the header has no sub-second form).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// retryAfterJittered spreads queue-full back-off over [base, 2·base]
// seconds: every client of a full queue gets the same 429 at the same
// moment, and an unjittered hint would march them all back in lockstep to
// collide again.
func retryAfterJittered(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs + rand.IntN(secs+1))
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	sessions := s.sched.Sessions()
	jobs := make([]jobJSON, len(sessions))
	for i, h := range sessions {
		jobs[i] = sessionJSON(h)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request) (*adaqp.SessionHandle, bool) {
	id := r.PathValue("id")
	h, ok := s.sched.Session(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return h, true
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, sessionJSON(h))
	}
}

func (s *server) result(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !h.Status().Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; result not available yet", h.ID(), h.Status())
		return
	}
	res, err := h.Result()
	if err != nil {
		writeError(w, http.StatusConflict, "job %s %s: %v", h.ID(), h.Status(), err)
		return
	}
	out := resultJSON{
		ID:      h.ID(),
		Dataset: res.Dataset, Model: res.Model,
		Codec: res.Codec, Parts: res.Parts,
		Epochs:    len(res.Epochs),
		FinalVal:  res.FinalVal,
		FinalTest: res.FinalTest,
		WallClock: float64(res.WallClock), AssignTime: float64(res.AssignTime),
		Throughput: res.Throughput(),
	}
	if n := len(res.Epochs); n > 0 {
		out.FinalLoss = res.Epochs[n-1].Loss
	}
	writeJSON(w, http.StatusOK, out)
}

// cancel handles DELETE /jobs/{id}: a live session gets a cancellation
// request (202, stops between epochs), a terminal one has its record
// removed immediately (200) instead of waiting for retention eviction.
func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	h, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if h.Status().Terminal() {
		doc := sessionJSON(h)
		// A terminal session is always removable; false only means a
		// concurrent DELETE or eviction removed it first.
		doc.Removed, _ = s.sched.Remove(h.ID())
		writeJSON(w, http.StatusOK, doc)
		return
	}
	h.Cancel()
	writeJSON(w, http.StatusAccepted, sessionJSON(h))
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.sched.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// metrics renders the scheduler counters in the Prometheus text
// exposition format (no client library: the format is four line shapes).
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	c := s.sched.Counters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	write := func(name, kind, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, kind, name, v)
	}
	write("adaqpd_sessions_submitted_total", "counter", "Sessions admitted into the queue.", c.Submitted)
	write("adaqpd_sessions_started_total", "counter", "Sessions that began training.", c.Started)
	write("adaqpd_sessions_completed_total", "counter", "Sessions that finished successfully.", c.Completed)
	write("adaqpd_sessions_failed_total", "counter", "Sessions that finished with an error.", c.Failed)
	write("adaqpd_sessions_canceled_total", "counter", "Sessions stopped by cancellation.", c.Canceled)
	write("adaqpd_sessions_rejected_total", "counter", "Submissions rejected by admission control.", c.Rejected)
	write("adaqpd_queue_depth", "gauge", "Sessions waiting for a worker slot.", int64(c.QueueDepth))
	write("adaqpd_sessions_running", "gauge", "Sessions currently training.", int64(c.Running))

	f := s.sched.FaultTotals()
	writef := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	write("adaqpd_fault_stragglers_total", "counter", "Straggler devices injected across completed sessions.", int64(f.Stragglers))
	write("adaqpd_fault_retries_total", "counter", "Collective retries after injected transient failures.", f.Retries)
	writef("adaqpd_fault_retry_seconds_total", "Simulated seconds spent on fault retries and backoff.", float64(f.RetryTime))
	write("adaqpd_fault_crashes_total", "counter", "Injected device crashes; each charges the lost attempt and the restart downtime.", f.Crashes)
	writef("adaqpd_fault_recovery_seconds_total", "Simulated seconds of crash restart downtime.", float64(f.RecoveryTime))
	writef("adaqpd_overlap_seconds_total", "Simulated seconds booked as overlap: compute run concurrently with collectives (AdaQP/PipeGCN schedules) and, under sancus split-phase broadcasts, also the wire time of broadcasts charged as concurrent.", float64(s.sched.OverlapTotal()))
}

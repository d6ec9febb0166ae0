// Command adaqpd serves adaqp training sessions over HTTP/JSON from one
// long-lived process: jobs are submitted as JobSpec documents, scheduled
// onto a bounded worker pool with admission control, and observable
// through status polling and a Prometheus-style metrics endpoint.
//
// Usage:
//
//	adaqpd -addr :8080 -max-concurrent 4 -queue-depth 32
//
// API (JSON unless noted):
//
//	POST   /jobs             submit a job spec → 202 {id, status}
//	                         429 + Retry-After when the queue is full,
//	                         503 once draining, 400 on an invalid spec
//	GET    /jobs             list all sessions
//	GET    /jobs/{id}        one session's status and epoch progress
//	GET    /jobs/{id}/result finished session's metrics (409 until terminal)
//	DELETE /jobs/{id}        cancel (stops between epochs) → 202
//	GET    /healthz          text liveness probe (503 once draining)
//	GET    /metrics          Prometheus text format counters
//
// Example:
//
//	curl -s localhost:8080/jobs -d '{"dataset":"tiny","codec":"adaptive","epochs":60}'
//	curl -s localhost:8080/jobs/job-1
//	curl -s localhost:8080/jobs/job-1/result
//
// On SIGINT/SIGTERM the daemon drains: it stops accepting jobs, finishes
// queued and running sessions (bounded by -drain-timeout), then exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/pkg/adaqp"
)

func main() {
	// Jobs running the proc-sharded transport re-execute this binary as
	// their worker processes; in that mode the process never reaches flag
	// parsing.
	adaqp.MaybeWorker()
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		maxConc      = flag.Int("max-concurrent", 2, "training sessions executing simultaneously")
		queueDepth   = flag.Int("queue-depth", 16, "admitted sessions that may wait for a worker")
		retryAfter   = flag.Duration("retry-after", time.Second, "base back-off hint on queue-full rejections (jittered per response)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "max wait for in-flight sessions on shutdown")
		retain       = flag.Int("retain-sessions", 256, "terminal session records kept retrievable (negative = unlimited)")
		retainFor    = flag.Duration("retain-for", time.Hour, "max age of terminal session records (0 = no TTL)")
		chaosJSON    = flag.String("chaos", "", `default fault plan as FaultSpec JSON, e.g. '{"stragglers":1,"slow_factor":4}'; applied to jobs without a chaos block`)
	)
	flag.Parse()

	sched, err := adaqp.NewScheduler(
		adaqp.WithMaxConcurrentSessions(*maxConc),
		adaqp.WithQueueDepth(*queueDepth),
		adaqp.WithRetryAfter(*retryAfter),
		adaqp.WithSessionRetention(*retain, *retainFor),
	)
	if err != nil {
		fatal(err)
	}

	api := newServer(sched)
	if *chaosJSON != "" {
		var spec adaqp.FaultSpec
		dec := json.NewDecoder(strings.NewReader(*chaosJSON))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			fatal(fmt.Errorf("-chaos: %w", err))
		}
		if err := spec.Validate(); err != nil {
			fatal(fmt.Errorf("-chaos: %w", err))
		}
		api.chaos = &spec
	}

	srv := &http.Server{Addr: *addr, Handler: api.handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("adaqpd listening on %s (workers %d, queue %d)\n", *addr, *maxConc, *queueDepth)
		errc <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: finish queued + running sessions, then stop serving.
	// The scheduler drains first so status endpoints stay reachable while
	// sessions wind down.
	fmt.Println("adaqpd draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := sched.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "adaqpd: drain incomplete: %v\n", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "adaqpd: shutdown: %v\n", err)
	}
	c := sched.Counters()
	fmt.Printf("adaqpd done: %d completed, %d failed, %d canceled, %d rejected\n",
		c.Completed, c.Failed, c.Canceled, c.Rejected)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "adaqpd: %v\n", err)
	os.Exit(1)
}

// Command msoc-serve runs the mixed-signal test planner as an HTTP/JSON
// service: a long-lived planning Engine whose per-design caches are
// shared across requests, a bounded worker pool, and per-request
// deadlines with mid-sweep cancellation.
//
// Usage:
//
//	msoc-serve [-addr :8093] [-workers N] [-max-concurrent 4]
//	           [-timeout 120s] [-max-designs 8] [-drain 30s]
//	           [-worker-urls http://a:8093,http://b:8093] [-worker-file workers.txt]
//	           [-shard-timeout 60s] [-shard-retries N] [-retry-backoff 250ms]
//	           [-probe-interval 5s] [-probe-timeout 2s] [-probe-failures 3]
//	           [-readmit-backoff 15s]
//	           [-job-dir /var/lib/msoc/jobs] [-job-retention 24h]
//
// Endpoints:
//
//	POST /v1/plan              {"width":32,"wt":0.5[,"exhaustive":true][,"design":{...}]}
//	POST /v1/sweep             {"widths":[32,48,64],"wts":[0.5,0.25][,"warm_start":true]}
//	POST /v1/shard             one round-robin shard of a sweep (what coordinators send)
//	POST /v1/sweeps            submit a sweep as a durable async job; returns its ID
//	GET  /v1/sweeps/{id}        job status with per-shard progress
//	GET  /v1/sweeps/{id}/result the finished job's SweepResponse (bytes == POST /v1/sweep)
//	GET  /v1/sweeps/{id}/events NDJSON stream of shard partials, then the terminal state
//	GET  /v1/designs           live cache sessions + cache-hit metrics
//	GET  /v1/workers           fleet membership and per-worker lifecycle state
//	POST /v1/workers           add/remove workers at runtime
//	GET  /metrics              Prometheus text-format scrape surface
//	GET  /healthz              liveness probe (reports planning capacity)
//
// With -worker-urls and/or -worker-file the server runs as a
// distributed-sweep *coordinator*: POST /v1/sweep is partitioned into
// capacity-weighted round-robin shards fanned out to the fleet's
// healthy workers under per-shard deadlines with backed-off
// retry-by-reassignment, and merged into a response byte-identical to
// an in-process sweep. The fleet is live: workers are probed via
// /healthz every -probe-interval, marked suspect on the first failure,
// evicted after -probe-failures consecutive failures, re-admitted once
// probes succeed again (first re-probe after -readmit-backoff), and
// may join or leave at runtime through POST /v1/workers or by editing
// the watched -worker-file. Workers are plain msoc-serve processes;
// nothing distinguishes them except receiving /v1/shard traffic.
//
// With -job-dir, POST /v1/sweeps jobs become *durable*: every completed
// shard is checkpointed to <job-dir>/<id>/ as it lands, and a restarted
// server with the same -job-dir recovers every job from those
// checkpoints, its only persisted state: every job re-verifies its
// surviving checkpoints, a fully checkpointed job finishes at once by
// re-merging them, and an interrupted one re-runs only the missing
// shards, converging to the same bytes an undisturbed sweep would have
// produced. Identical
// re-submissions return the existing job's ID (the ID is derived from
// the request content, so dedupe also survives restarts). -job-retention
// bounds how long terminal jobs are kept before garbage collection;
// 0 keeps them forever.
//
// SIGTERM/SIGINT triggers a graceful shutdown: the listener closes,
// in-flight plans and sweeps get up to -drain to finish, and the
// fleet's probe loop stops cleanly.
//
// Responses are bit-identical to direct library calls; msoc-plan -json
// prints the same bytes for the same request, which CI verifies against
// a live server — and against a coordinator whose workers are killed
// mid-sweep (the chaos-smoke job).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mixsoc/internal/core"
	"mixsoc/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("msoc-serve: ")
	if err := run(os.Args[1:], nil, nil); err != nil {
		log.Fatal(err)
	}
}

// run is main without the process plumbing, so graceful shutdown is
// unit-testable: sigs, when non-nil, replaces the OS signal channel;
// ready, when non-nil, receives the bound listen address once the
// server accepts connections. It returns once the server has fully
// drained (or the listener failed).
func run(args []string, sigs <-chan os.Signal, ready chan<- string) error {
	fs := flag.NewFlagSet("msoc-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8093", "listen address")
	workers := fs.Int("workers", 0, "total CPU budget across concurrent requests; 0 = all CPUs")
	maxConcurrent := fs.Int("max-concurrent", 4, "planning requests in flight before 503s")
	timeout := fs.Duration("timeout", 120*time.Second, "per-request planning deadline (also caps timeout_ms)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight requests after SIGTERM/SIGINT")
	maxDesigns := fs.Int("max-designs", 8, "design cache sessions kept before LRU eviction")
	workerURLs := fs.String("worker-urls", "", "comma-separated worker base URLs; non-empty runs this server as a distributed-sweep coordinator")
	workerFile := fs.String("worker-file", "", "watched file of worker base URLs, one per line (# comments); re-read every probe interval, so edits change the fleet live")
	shardTimeout := fs.Duration("shard-timeout", 60*time.Second, "coordinator per-shard-attempt deadline before the shard is reassigned")
	shardRetries := fs.Int("shard-retries", -1, "extra workers a failed shard is reassigned to; -1 = every other fleet member once")
	retryBackoff := fs.Duration("retry-backoff", 250*time.Millisecond, "base wait between a shard's attempts, doubling per retry")
	probeInterval := fs.Duration("probe-interval", 5*time.Second, "fleet health-probe period (also the worker-file poll period)")
	probeTimeout := fs.Duration("probe-timeout", 2*time.Second, "per-probe /healthz deadline")
	probeFailures := fs.Int("probe-failures", 3, "consecutive probe/shard failures before a worker is evicted (the first failure marks it suspect)")
	readmitBackoff := fs.Duration("readmit-backoff", 15*time.Second, "initial wait before an evicted worker is re-probed for re-admission, doubling per failed re-probe")
	jobDir := fs.String("job-dir", "", "directory for durable async sweep jobs (POST /v1/sweeps); empty keeps jobs in memory only")
	jobRetention := fs.Duration("job-retention", 0, "how long finished/failed jobs are kept before garbage collection; 0 = forever")
	if err := fs.Parse(args); err != nil {
		return err
	}

	urls := splitWorkerURLs(*workerURLs)
	eng := core.NewEngine(core.EngineOptions{
		MaxDesigns: *maxDesigns,
		Workers:    innerWorkers(*workers, *maxConcurrent),
	})
	srv := service.New(service.Options{
		Engine:                eng,
		Workers:               *workers,
		MaxConcurrent:         *maxConcurrent,
		RequestTimeout:        *timeout,
		WorkerURLs:            urls,
		WorkerFile:            *workerFile,
		ShardTimeout:          *shardTimeout,
		ShardAttempts:         *shardRetries + 1,
		RetryBackoff:          *retryBackoff,
		ProbeInterval:         *probeInterval,
		ProbeTimeout:          *probeTimeout,
		ProbeFailureThreshold: *probeFailures,
		ReadmitBackoff:        *readmitBackoff,
		JobDir:                *jobDir,
		JobRetention:          *jobRetention,
		Logf:                  log.Printf,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if sigs == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(ch)
		sigs = ch
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if len(urls) > 0 || *workerFile != "" {
		log.Printf("coordinating sweeps across a live fleet (urls=%d, file=%q, probe every %s, evict after %d failures, re-admit backoff %s)",
			len(urls), *workerFile, *probeInterval, *probeFailures, *readmitBackoff)
	}
	if *jobDir != "" {
		retention := "forever"
		if *jobRetention > 0 {
			retention = jobRetention.String()
		}
		log.Printf("durable jobs in %s (retention %s)", *jobDir, retention)
	}
	log.Printf("serving on %s (workers %d, max-concurrent %d, timeout %s)",
		ln.Addr(), effectiveWorkers(*workers), *maxConcurrent, *timeout)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-sigs:
		log.Printf("shutting down: draining in-flight requests (deadline %s); engine %s", *drain, eng)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		// Probes and idle fleet connections stop with the server (the
		// deferred Close is idempotent; doing it before returning keeps
		// "run returned" == "nothing left running").
		srv.Close()
		return nil
	}
}

// splitWorkerURLs resolves the -worker-urls flag (comma-separated base
// URLs); the -worker-file is handled by the service itself, which
// watches it for changes.
func splitWorkerURLs(urls string) []string {
	var out []string
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// effectiveWorkers mirrors the service's worker default for the banner.
func effectiveWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return core.DefaultWorkers()
}

// innerWorkers is each request slot's share of the CPU budget, matching
// the split service.New applies.
func innerWorkers(workers, maxConcurrent int) int {
	if maxConcurrent < 1 {
		maxConcurrent = 4
	}
	_, inner := core.SplitWorkers(effectiveWorkers(workers), maxConcurrent)
	return inner
}

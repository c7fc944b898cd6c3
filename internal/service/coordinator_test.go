package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// distTestGrid is the sweep the distributed tests run: small enough to
// stay fast, wide enough that both workers own several cells.
var distTestGrid = SweepRequest{Widths: []int{32, 40, 48}, WTs: []float64{0.5, 0.25}}

// newWorker boots one in-process worker server.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	s := New(Options{})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newCoordinator2 boots a coordinator over the given worker URLs,
// returning both halves so tests can reach the fleet and the
// coordinator's injectable sleep.
func newCoordinator2(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newCoordinatorServer boots a coordinator over the given worker URLs.
func newCoordinatorServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	_, ts := newCoordinator2(t, opts)
	return ts
}

// inProcessSweepBytes is the reference: the same sweep served by a
// standalone (non-coordinating) server.
func inProcessSweepBytes(t *testing.T, req SweepRequest) []byte {
	t.Helper()
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	status, body := post(t, ts, "/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("in-process sweep: status %d: %s", status, body)
	}
	return body
}

// A coordinator fanning a sweep across two healthy workers must return
// the exact bytes of an in-process sweep — the distribution layer adds
// transport and placement, never drift.
func TestDistributedSweepBitIdenticalToInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	want := inProcessSweepBytes(t, distTestGrid)

	wa, wb := newWorker(t), newWorker(t)
	coord := newCoordinatorServer(t, Options{WorkerURLs: []string{wa.URL, wb.URL}})
	status, got := post(t, coord, "/v1/sweep", distTestGrid)
	if status != http.StatusOK {
		t.Fatalf("distributed sweep: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed sweep differs from in-process sweep:\ndistributed %d bytes, in-process %d bytes", len(got), len(want))
	}

	// Both workers actually served shards.
	series := scrape(t, coord)
	for _, w := range []string{wa.URL, wb.URL} {
		if series[`msoc_worker_shards_total{result="ok",worker="`+w+`"}`] == 0 {
			t.Errorf("worker %s served no shard; the sweep was not distributed", w)
		}
	}
}

// The worker endpoint alone must honor the round-robin contract: the
// two halves of a 2-way split reinterleave into the full sweep.
func TestShardEndpointPartialsInterleave(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	_, ts := newTestServer(t)

	var full SweepResponse
	status, body := post(t, ts, "/v1/sweep", distTestGrid)
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}

	parts := make([]ShardResponse, 2)
	for s := 0; s < 2; s++ {
		status, body := post(t, ts, "/v1/shard", ShardRequest{SweepRequest: distTestGrid, Shard: s, Of: 2})
		if status != http.StatusOK {
			t.Fatalf("shard %d: status %d: %s", s, status, body)
		}
		if err := json.Unmarshal(body, &parts[s]); err != nil {
			t.Fatal(err)
		}
	}
	cells := len(full.Points)
	for i := 0; i < cells; i++ {
		pt := parts[i%2].Points[i/2]
		if pt.Width != full.Points[i].Width || pt.Result.Best.Cost != full.Points[i].Result.Best.Cost {
			t.Errorf("cell %d: shard point (W=%d cost=%v) != full point (W=%d cost=%v)",
				i, pt.Width, pt.Result.Best.Cost, full.Points[i].Width, full.Points[i].Result.Best.Cost)
		}
	}
}

// A worker that answers 500 to every shard must have its shards
// reassigned to the healthy worker — and the merged bytes must still
// equal the in-process sweep.
func TestCoordinatorReassignsShardsFromFailingWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	want := inProcessSweepBytes(t, distTestGrid)

	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"disk on fire"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)
	healthy := newWorker(t)

	coord := newCoordinatorServer(t, Options{WorkerURLs: []string{broken.URL, healthy.URL}})
	status, got := post(t, coord, "/v1/sweep", distTestGrid)
	if status != http.StatusOK {
		t.Fatalf("sweep with one broken worker: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reassigned sweep differs from in-process sweep")
	}

	series := scrape(t, coord)
	if series[`msoc_worker_shards_total{result="error",worker="`+broken.URL+`"}`] == 0 {
		t.Error("broken worker's failures not counted")
	}
	if series[`msoc_worker_shards_total{result="ok",worker="`+healthy.URL+`"}`] == 0 {
		t.Error("healthy worker served nothing")
	}
}

// A worker that hangs past the shard deadline must be cancelled and its
// shard retried on the other worker; the sweep still completes with
// in-process bytes. The grid is a single cell so the sweep is exactly
// one shard whose home is the hanging worker — the deadline's clock
// races no real solver work, keeping the test deterministic under
// -race on a loaded machine (the healthy retry gets the full shard
// deadline for its one plan).
func TestCoordinatorRetriesHangingWorkerAfterShardDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	const shardTimeout = 3 * time.Second
	oneCell := SweepRequest{Widths: []int{32}, WTs: []float64{0.5}}
	want := inProcessSweepBytes(t, oneCell)

	hung := make(chan struct{}, 1)
	hanging := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case hung <- struct{}{}:
		default:
		}
		// Drain the body so net/http's background read can notice the
		// coordinator abandoning the connection, then hold the request
		// until that cancellation arrives.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(hanging.Close)
	healthy := newWorker(t)

	coord := newCoordinatorServer(t, Options{
		WorkerURLs:   []string{hanging.URL, healthy.URL},
		ShardTimeout: shardTimeout,
	})
	t0 := time.Now()
	status, got := post(t, coord, "/v1/sweep", oneCell)
	if status != http.StatusOK {
		t.Fatalf("sweep with a hanging worker: status %d: %s", status, got)
	}
	select {
	case <-hung:
	default:
		t.Fatal("hanging worker never saw a shard; the timeout path was not exercised")
	}
	if elapsed := time.Since(t0); elapsed < shardTimeout {
		t.Errorf("sweep finished in %v, before the shard deadline could have fired", elapsed)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-timeout sweep differs from in-process sweep")
	}
	series := scrape(t, coord)
	if series[`msoc_worker_shards_total{result="timeout",worker="`+hanging.URL+`"}`] == 0 {
		t.Error("shard timeout not counted against the hanging worker")
	}
}

// When every worker fails, the sweep must come back as a structured
// 502: per-worker, per-shard failure detail in the body, not a bare
// string.
func TestCoordinatorAllWorkersFailingYields502WithDetail(t *testing.T) {
	brokenA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no planner here"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(brokenA.Close)
	brokenB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "teapot", http.StatusTeapot)
	}))
	t.Cleanup(brokenB.Close)

	coord := newCoordinatorServer(t, Options{WorkerURLs: []string{brokenA.URL, brokenB.URL}})
	status, body := post(t, coord, "/v1/sweep", distTestGrid)
	if status != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 (%s)", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("502 body not JSON: %s", body)
	}
	if er.Error == "" || !strings.Contains(er.Error, "distributed sweep failed") {
		t.Errorf("502 error = %q, want a distributed-sweep failure summary", er.Error)
	}
	if len(er.Workers) < 2 {
		t.Fatalf("502 carries %d worker failures, want at least one per worker: %s", len(er.Workers), body)
	}
	seenWorker := map[string]bool{}
	for _, f := range er.Workers {
		seenWorker[f.Worker] = true
		if f.Worker == "" || f.Error == "" {
			t.Errorf("failure lacks detail: %+v", f)
		}
		if f.Shard < 0 || f.Shard >= len(distTestGrid.Widths)*len(distTestGrid.WTs) {
			t.Errorf("failure names impossible shard %d", f.Shard)
		}
	}
	if !seenWorker[brokenA.URL] || !seenWorker[brokenB.URL] {
		t.Errorf("502 does not name both workers: %s", body)
	}
	// The teapot status and the worker's own error body must survive
	// into the detail.
	if !strings.Contains(string(body), "418") || !strings.Contains(string(body), "no planner here") {
		t.Errorf("per-worker detail lost the upstream status/body: %s", body)
	}
}

// Warm-started sweeps chain widths sequentially, so a coordinator keeps
// them in-process instead of distributing — even with workers that
// would fail every shard.
func TestCoordinatorKeepsWarmSweepInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unreachable", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)

	coord := newCoordinatorServer(t, Options{WorkerURLs: []string{broken.URL}})
	req := distTestGrid
	req.WarmStart = true
	status, body := post(t, coord, "/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("warm sweep on a coordinator: status %d: %s", status, body)
	}
	series := scrape(t, coord)
	if series[`msoc_worker_shards_total{result="error",worker="`+broken.URL+`"}`] != 0 {
		t.Error("warm sweep touched the workers; it must plan in-process")
	}
}

// /v1/shard validation: bad shard geometry, empty shards and warm
// starts are 400s, not 500s.
func TestShardRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	shard := func(widths []int, wts []float64, shard, of int) ShardRequest {
		return ShardRequest{SweepRequest: SweepRequest{Widths: widths, WTs: wts}, Shard: shard, Of: of}
	}
	warm := shard([]int{32}, nil, 0, 1)
	warm.WarmStart = true
	bad := []ShardRequest{
		shard([]int{32}, nil, 0, 0),                     // of out of range
		shard([]int{32}, nil, 2, 2),                     // shard out of range
		shard([]int{32}, nil, 1, 2),                     // owns no cells
		shard([]int{32, 32}, nil, 0, 1),                 // duplicate width axis
		shard([]int{32, 40}, []float64{0.5, 0.5}, 0, 1), // duplicate weight axis
		shard(nil, nil, 0, 1),                           // no widths
		warm,                                            // shards solve cold
	}
	for _, req := range bad {
		status, body := post(t, ts, "/v1/shard", req)
		if status != http.StatusBadRequest {
			t.Errorf("shard %+v: status %d, want 400 (%s)", req, status, body)
		}
	}
}

// A worker list that normalizes to nothing must not build a
// coordinator: the server stays standalone and sweeps still return
// real results, never a "merged" grid of zero shards.
func TestEmptyNormalizedWorkerListStaysStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	coord := newCoordinatorServer(t, Options{WorkerURLs: []string{"/", "  "}})
	req := SweepRequest{Widths: []int{32}, WTs: []float64{0.5}}
	status, got := post(t, coord, "/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", status, got)
	}
	var resp SweepResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 1 || resp.Points[0].Result == nil || resp.Points[0].Width != 32 {
		t.Fatalf("sweep returned hollow points: %s", got)
	}
}

// recordingSleep replaces the coordinator's retry backoff with an
// instant no-op that records the requested waits, keeping retry tests
// fast while pinning the backoff schedule.
type recordingSleep struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (r *recordingSleep) sleep(ctx context.Context, d time.Duration) error {
	r.mu.Lock()
	r.waits = append(r.waits, d)
	r.mu.Unlock()
	return ctx.Err()
}

// newBrokenWorker boots a worker that 500s every request.
func newBrokenWorker(t *testing.T, msg string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, msg, http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// Shard reassignment must back off between attempts — exponentially
// from RetryBackoff, with no wait before the first attempt — rather
// than hammering the fleet instantly. The injected sleep keeps the test
// instant and pins the exact schedule.
func TestCoordinatorRetryBackoffSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	oneCell := SweepRequest{Widths: []int{32}, WTs: []float64{0.5}}
	want := inProcessSweepBytes(t, oneCell)

	brokenA := newBrokenWorker(t, "down")
	brokenB := newBrokenWorker(t, "down")
	healthy := newWorker(t)

	base := 100 * time.Millisecond
	rec := &recordingSleep{}
	// The one-cell sweep's single shard is homed on brokenA (first in
	// insertion order, all capacities 1), so the attempt chain is
	// brokenA → sleep(base) → brokenB → sleep(2·base) → healthy.
	s, ts := newCoordinator2(t, Options{
		WorkerURLs:   []string{brokenA.URL, brokenB.URL, healthy.URL},
		RetryBackoff: base,
	})
	s.coord.sleep = rec.sleep

	status, got := post(t, ts, "/v1/sweep", oneCell)
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("retried sweep differs from in-process sweep")
	}
	rec.mu.Lock()
	waits := append([]time.Duration(nil), rec.waits...)
	rec.mu.Unlock()
	if len(waits) != 2 || waits[0] != base || waits[1] != 2*base {
		t.Fatalf("backoff schedule = %v, want [%v %v]", waits, base, 2*base)
	}
}

// A shard failure is fleet evidence, not private to the retry loop: the
// failing worker must turn suspect fleet-wide, and once every healthy
// worker exists the next sweep's shards must avoid it entirely.
func TestCoordinatorShardFailureFoldsIntoFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	oneCell := SweepRequest{Widths: []int{32}, WTs: []float64{0.5}}
	broken := newBrokenWorker(t, "disk on fire")
	healthy := newWorker(t)

	rec := &recordingSleep{}
	s, ts := newCoordinator2(t, Options{
		WorkerURLs: []string{broken.URL, healthy.URL},
	})
	s.coord.sleep = rec.sleep

	if status, body := post(t, ts, "/v1/sweep", oneCell); status != http.StatusOK {
		t.Fatalf("first sweep: status %d: %s", status, body)
	}
	var snap []WorkerInfo
	for _, wi := range s.fleet.snapshot() {
		snap = append(snap, wi)
	}
	if snap[0].URL != broken.URL || snap[0].State != WorkerSuspect {
		t.Fatalf("broken worker after failed shard: %+v, want suspect", snap[0])
	}
	if snap[0].LastError == "" {
		t.Error("suspect worker carries no failure detail")
	}
	if snap[1].State != WorkerHealthy {
		t.Fatalf("healthy worker: %+v", snap[1])
	}

	// The second sweep must be homed entirely on the healthy worker:
	// the broken one sees no further attempts.
	errsBefore := scrape(t, ts)[`msoc_worker_shards_total{result="error",worker="`+broken.URL+`"}`]
	if status, body := post(t, ts, "/v1/sweep", oneCell); status != http.StatusOK {
		t.Fatalf("second sweep: status %d: %s", status, body)
	}
	if errsAfter := scrape(t, ts)[`msoc_worker_shards_total{result="error",worker="`+broken.URL+`"}`]; errsAfter != errsBefore {
		t.Errorf("suspect worker was assigned again: error count %v -> %v", errsBefore, errsAfter)
	}
}

// A drifted worker that returns a well-formed partial with wrong grid
// coordinates must be treated like any other failure — shard
// reassigned, worker named — and the merged bytes still equal the
// in-process sweep.
func TestCoordinatorReassignsOnMergeContractViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	oneCell := SweepRequest{Widths: []int{32}, WTs: []float64{0.5}}
	want := inProcessSweepBytes(t, oneCell)

	// The drifted worker passes the hash/geometry checks but plants its
	// point on the wrong width.
	backing := New(Options{})
	drifted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("drifted worker: %v", err)
		}
		resp, err := backing.shard(r.Context(), req)
		if err != nil {
			t.Errorf("drifted worker: %v", err)
			return
		}
		resp.Points[0].Width++ // the drift
		w.Header().Set("Content-Type", "application/json")
		WriteJSON(w, resp)
	}))
	t.Cleanup(drifted.Close)
	healthy := newWorker(t)

	coord := newCoordinatorServer(t, Options{WorkerURLs: []string{drifted.URL, healthy.URL}})
	status, got := post(t, coord, "/v1/sweep", oneCell)
	if status != http.StatusOK {
		t.Fatalf("sweep with a drifted worker: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-drift sweep differs from in-process sweep")
	}
	series := scrape(t, coord)
	if series[`msoc_worker_shards_total{result="error",worker="`+drifted.URL+`"}`] == 0 {
		t.Error("drifted worker's contract violation not counted as a failure")
	}
}

package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mixsoc/internal/core"
)

// get performs a GET against the test server, returning status and
// body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// newTestFleet builds an unprobed fleet with fast, deterministic
// settings for direct state-machine tests.
func newTestFleet(t *testing.T, opts Options) *fleet {
	t.Helper()
	f := newFleet(opts, newMetricsRegistry(core.NewSlots(1)), &http.Client{Transport: newFleetTransport()}, t.Logf)
	t.Cleanup(f.close)
	return f
}

// states maps each member URL to its current lifecycle state.
func states(f *fleet) map[string]string {
	out := map[string]string{}
	for _, w := range f.snapshot() {
		out[w.URL] = w.State
	}
	return out
}

// The core lifecycle: first failure marks a worker suspect, the
// threshold evicts it, and any success re-admits it to healthy with its
// failure count reset.
func TestFleetStateMachine(t *testing.T) {
	f := newTestFleet(t, Options{
		WorkerURLs:            []string{"http://a", "http://b"},
		ProbeFailureThreshold: 3,
	})

	f.reportFailure("http://a", "probe: connection refused")
	if got := states(f); got["http://a"] != WorkerSuspect || got["http://b"] != WorkerHealthy {
		t.Fatalf("after one failure: %v", got)
	}
	f.reportFailure("http://a", "probe: connection refused")
	if got := states(f); got["http://a"] != WorkerSuspect {
		t.Fatalf("below threshold, want suspect: %v", got)
	}
	f.reportFailure("http://a", "probe: connection refused")
	if got := states(f); got["http://a"] != WorkerEvicted {
		t.Fatalf("at threshold, want evicted: %v", got)
	}

	f.reportSuccess("http://a", 8)
	snap := f.snapshot()
	if snap[0].State != WorkerHealthy || snap[0].ConsecutiveFailures != 0 {
		t.Fatalf("after success, want healthy with failures reset: %+v", snap[0])
	}
	if snap[0].Capacity != 8 {
		t.Fatalf("success must adopt the advertised capacity, got %d", snap[0].Capacity)
	}
	if snap[0].LastOK == "" || snap[0].LastError != "" {
		t.Fatalf("re-admitted worker should carry last_ok and no last_error: %+v", snap[0])
	}
}

// A worker that goes healthy -> suspect -> evicted in one burst (the
// threshold-1 fallthrough) with threshold 1 must evict immediately.
func TestFleetThresholdOneEvictsOnFirstFailure(t *testing.T) {
	f := newTestFleet(t, Options{WorkerURLs: []string{"http://a"}, ProbeFailureThreshold: 1})
	f.reportFailure("http://a", "boom")
	if got := states(f); got["http://a"] != WorkerEvicted {
		t.Fatalf("threshold 1, want immediate eviction: %v", got)
	}
}

// An evicted worker's re-probe backoff starts at ReadmitBackoff and
// doubles per further failure, capped; a success clears it.
func TestFleetReadmitBackoffDoubles(t *testing.T) {
	base := 10 * time.Second
	f := newTestFleet(t, Options{
		WorkerURLs:            []string{"http://a"},
		ProbeFailureThreshold: 1,
		ReadmitBackoff:        base,
	})
	now := time.Unix(1000, 0)
	f.now = func() time.Time { return now }

	f.reportFailure("http://a", "down") // evicts; backoff = base
	w := func() fleetWorker {
		f.mu.Lock()
		defer f.mu.Unlock()
		return *f.workers["http://a"]
	}
	if got := w(); got.backoff != base || !got.next.Equal(now.Add(base)) {
		t.Fatalf("after eviction: backoff %v next %v, want %v / %v", got.backoff, got.next, base, now.Add(base))
	}
	for i, want := range []time.Duration{2 * base, 4 * base, 8 * base} {
		f.reportFailure("http://a", "still down")
		if got := w(); got.backoff != want {
			t.Fatalf("re-probe failure %d: backoff %v, want %v", i+1, got.backoff, want)
		}
	}
	// The cap holds no matter how long the outage.
	for i := 0; i < 20; i++ {
		f.reportFailure("http://a", "still down")
	}
	if got, cap := w().backoff, base*(1<<readmitBackoffCap); got > 2*cap {
		t.Fatalf("backoff %v blew past the cap %v", got, cap)
	}
	f.reportSuccess("http://a", 0)
	if got := w(); got.backoff != 0 || !got.next.IsZero() {
		t.Fatalf("success must clear the backoff: %+v", got)
	}
}

// Shard homes are apportioned by advertised capacity: a worker with 3x
// the budget gets 3x the shards, and the shard count is min(cells,
// total capacity).
func TestFleetAssignCapacityWeighted(t *testing.T) {
	f := newTestFleet(t, Options{WorkerURLs: []string{"http://big", "http://small"}})
	f.reportSuccess("http://big", 3)
	f.reportSuccess("http://small", 1)

	homes, ok := f.assign(8)
	if !ok {
		t.Fatal("assign reported an empty fleet")
	}
	want := []string{"http://big", "http://big", "http://big", "http://small"}
	if !reflect.DeepEqual(homes, want) {
		t.Fatalf("homes = %v, want %v", homes, want)
	}

	// Fewer cells than total capacity: one shard per cell.
	homes, _ = f.assign(2)
	if len(homes) != 2 {
		t.Fatalf("2-cell sweep got %d shards", len(homes))
	}

	// Unprobed capacities default to 1 each: one shard per worker.
	g := newTestFleet(t, Options{WorkerURLs: []string{"http://a", "http://b"}})
	homes, _ = g.assign(6)
	if !reflect.DeepEqual(homes, []string{"http://a", "http://b"}) {
		t.Fatalf("default-capacity homes = %v", homes)
	}
}

// Assignment draws only from healthy workers while any exist, degrades
// to suspects, and only as a last resort homes shards on evicted
// workers; an empty fleet yields ok=false.
func TestFleetAssignPrefersHealthy(t *testing.T) {
	f := newTestFleet(t, Options{
		WorkerURLs:            []string{"http://a", "http://b", "http://c"},
		ProbeFailureThreshold: 2,
	})
	f.reportFailure("http://a", "flaky") // suspect
	homes, _ := f.assign(4)
	for _, h := range homes {
		if h == "http://a" {
			t.Fatalf("suspect worker got a home while healthy ones exist: %v", homes)
		}
	}

	f.reportFailure("http://b", "down")
	f.reportFailure("http://b", "down") // evicted
	f.reportFailure("http://c", "down")
	f.reportFailure("http://c", "down") // evicted
	homes, _ = f.assign(2)
	for _, h := range homes {
		if h != "http://a" {
			t.Fatalf("suspect should beat evicted: %v", homes)
		}
	}

	// With every worker evicted, every member gets homes again.
	f.reportFailure("http://a", "down") // evicted
	homes, ok := f.assign(6)
	if want := []string{"http://a", "http://b", "http://c"}; !ok || !reflect.DeepEqual(homes, want) {
		t.Fatalf("all-evicted homes = %v (ok=%t), want %v", homes, ok, want)
	}

	empty := newTestFleet(t, Options{})
	if _, ok := empty.assign(4); ok {
		t.Fatal("empty fleet must report ok=false")
	}
}

// Retry candidates rotate from the home worker, prefer healthier
// states, never repeat a tried worker, and see mid-sweep hot-adds.
func TestFleetNextWorker(t *testing.T) {
	f := newTestFleet(t, Options{
		WorkerURLs:            []string{"http://a", "http://b", "http://c"},
		ProbeFailureThreshold: 2,
	})
	tried := map[string]bool{}
	if w := f.nextWorker("http://b", tried); w != "http://b" {
		t.Fatalf("first attempt should be the home worker, got %q", w)
	}
	tried["http://b"] = true
	if w := f.nextWorker("http://b", tried); w != "http://c" {
		t.Fatalf("retry should rotate to the next worker, got %q", w)
	}
	// A suspect worker loses its turn to a healthy one later in the
	// rotation.
	f.reportFailure("http://c", "slow")
	if w := f.nextWorker("http://b", tried); w != "http://a" {
		t.Fatalf("healthy a should beat suspect c, got %q", w)
	}
	tried["http://a"] = true
	if w := f.nextWorker("http://b", tried); w != "http://c" {
		t.Fatalf("suspect c is the only one left, got %q", w)
	}
	tried["http://c"] = true
	if w := f.nextWorker("http://b", tried); w != "" {
		t.Fatalf("everyone tried, want \"\", got %q", w)
	}
	// A worker hot-added mid-sweep becomes a retry candidate.
	if err := f.update([]string{"http://late"}, nil); err != nil {
		t.Fatal(err)
	}
	if w := f.nextWorker("http://b", tried); w != "http://late" {
		t.Fatalf("hot-added worker should be picked up, got %q", w)
	}
}

// Probes drive the full lifecycle against real HTTP endpoints: capacity
// is read from /healthz, failures evict, the eviction backoff gates
// re-probes, and recovery re-admits.
func TestFleetProbeLifecycle(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s, want /healthz", r.URL.Path)
		}
		if !healthy.Load() {
			http.Error(w, "sick", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(HealthResponse{OK: true, Capacity: 7})
	}))
	t.Cleanup(worker.Close)

	f := newTestFleet(t, Options{
		WorkerURLs:            []string{worker.URL},
		ProbeFailureThreshold: 2,
		ProbeTimeout:          2 * time.Second,
		ReadmitBackoff:        time.Hour, // gates re-probes until we move the clock
	})
	now := time.Unix(5000, 0)
	f.now = func() time.Time { return now }

	f.probeDue(context.Background())
	snap := f.snapshot()
	if snap[0].State != WorkerHealthy || snap[0].Capacity != 7 {
		t.Fatalf("after healthy probe: %+v", snap[0])
	}

	healthy.Store(false)
	f.probeDue(context.Background())
	f.probeDue(context.Background())
	if got := states(f); got[worker.URL] != WorkerEvicted {
		t.Fatalf("two failed probes at threshold 2, want evicted: %v", got)
	}

	// Within the backoff window the evicted worker is not re-probed,
	// even though it has recovered.
	healthy.Store(true)
	f.probeDue(context.Background())
	if got := states(f); got[worker.URL] != WorkerEvicted {
		t.Fatalf("re-probe before the backoff expired: %v", got)
	}

	// Past the backoff the probe runs and re-admits.
	now = now.Add(2 * time.Hour)
	f.probeDue(context.Background())
	if got := states(f); got[worker.URL] != WorkerHealthy {
		t.Fatalf("recovered worker not re-admitted: %v", got)
	}
}

// A plain 200 from a non-msoc health endpoint still counts as alive
// (capacity 1), and ok=false in the body counts as a failure.
func TestFleetProbeForeignAndUnhealthyBodies(t *testing.T) {
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("OK"))
	}))
	t.Cleanup(plain.Close)
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(HealthResponse{OK: false})
	}))
	t.Cleanup(sick.Close)

	f := newTestFleet(t, Options{WorkerURLs: []string{plain.URL, sick.URL}})
	f.probeDue(context.Background())
	got := states(f)
	if got[plain.URL] != WorkerHealthy {
		t.Errorf("plain-200 endpoint: %v, want healthy", got[plain.URL])
	}
	if got[sick.URL] != WorkerSuspect {
		t.Errorf("ok=false endpoint: %v, want suspect", got[sick.URL])
	}
}

// The watched worker file is authoritative for file-sourced members:
// a rewrite admits new URLs and drops vanished ones, while static and
// API workers survive.
func TestFleetWorkerFileWatch(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "workers.txt")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("# fleet\nhttp://file-a:1\nhttp://file-b:1\n")

	f := newTestFleet(t, Options{
		WorkerURLs: []string{"http://static:1"},
		WorkerFile: file,
	})
	if err := f.update([]string{"http://api:1"}, nil); err != nil {
		t.Fatal(err)
	}
	got := states(f)
	for _, u := range []string{"http://static:1", "http://file-a:1", "http://file-b:1", "http://api:1"} {
		if got[u] != WorkerHealthy {
			t.Fatalf("missing member %s: %v", u, got)
		}
	}

	// Drop file-b, add file-c; everyone else must survive.
	write("http://file-a:1\nhttp://file-c:1\nnot a url\n")
	f.syncFile()
	got = states(f)
	if _, ok := got["http://file-b:1"]; ok {
		t.Error("file-b survived being dropped from the file")
	}
	for _, u := range []string{"http://static:1", "http://file-a:1", "http://file-c:1", "http://api:1"} {
		if _, ok := got[u]; !ok {
			t.Errorf("member %s lost on file rewrite: %v", u, got)
		}
	}

	// An unchanged file is a no-op (content signature short-circuit).
	before := len(f.snapshot())
	f.syncFile()
	if after := len(f.snapshot()); after != before {
		t.Errorf("no-op re-read changed membership %d -> %d", before, after)
	}
}

// Static worker entries go through the same validation as the worker
// file and POST /v1/workers: a scheme-less host:port would fail every
// probe and shard attempt, so it is skipped rather than admitted.
func TestFleetStaticURLsValidated(t *testing.T) {
	f := newTestFleet(t, Options{WorkerURLs: []string{"localhost:8094", " http://ok:1/ ", "ftp://x", "http://"}})
	if got, want := states(f), map[string]string{"http://ok:1": WorkerHealthy}; !reflect.DeepEqual(got, want) {
		t.Fatalf("static members = %v, want %v", got, want)
	}
}

// Membership updates validate URLs and normalize trailing slashes;
// removal accepts the denormalized spelling.
func TestFleetUpdateValidation(t *testing.T) {
	f := newTestFleet(t, Options{})
	for _, bad := range []string{"", "   ", "not-a-url", "ftp://x", "http://"} {
		if err := f.update([]string{bad}, nil); err == nil {
			t.Errorf("update accepted bad url %q", bad)
		}
	}
	if err := f.update([]string{"http://w:1/"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := states(f); got["http://w:1"] != WorkerHealthy {
		t.Fatalf("normalized add missing: %v", got)
	}
	if err := f.update(nil, []string{"http://w:1/"}); err != nil {
		t.Fatal(err)
	}
	if f.hasWorkers() {
		t.Fatal("remove with trailing slash did not match the member")
	}
}

// The fleet's shared HTTP transport must be tuned for sweep fan-out:
// connection reuse per worker at least the shard fan-out, and bounded
// dial waits — not net/http's zero-value client.
func TestFleetTransportTuned(t *testing.T) {
	tr := newFleetTransport()
	if tr.MaxIdleConnsPerHost < 16 {
		t.Errorf("MaxIdleConnsPerHost = %d, want >= 16 (shard fan-out reuses connections)", tr.MaxIdleConnsPerHost)
	}
	if tr.MaxIdleConns < tr.MaxIdleConnsPerHost {
		t.Errorf("MaxIdleConns = %d < per-host %d", tr.MaxIdleConns, tr.MaxIdleConnsPerHost)
	}
	if tr.TLSHandshakeTimeout <= 0 {
		t.Error("TLS handshake timeout unbounded")
	}
	if tr.IdleConnTimeout <= 0 {
		t.Error("idle connections never expire")
	}
	s := New(Options{})
	t.Cleanup(s.Close)
	if _, ok := s.coord.client.Transport.(*http.Transport); !ok {
		t.Error("coordinator client does not use the tuned transport")
	}
	if s.coord.client.Transport != s.fleet.client.Transport {
		t.Error("coordinator and fleet probes do not share one transport")
	}
}

// Server.Close must stop the probe loop: after Close returns no further
// probes hit the worker.
func TestServerCloseStopsProbes(t *testing.T) {
	var probes atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		json.NewEncoder(w).Encode(HealthResponse{OK: true, Capacity: 1})
	}))
	t.Cleanup(worker.Close)

	s := New(Options{
		WorkerURLs:    []string{worker.URL},
		ProbeInterval: 10 * time.Millisecond,
	})
	deadline := time.Now().Add(5 * time.Second)
	for probes.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if probes.Load() == 0 {
		t.Fatal("probe loop never probed the worker")
	}
	s.Close()
	after := probes.Load()
	time.Sleep(100 * time.Millisecond)
	if got := probes.Load(); got != after {
		t.Fatalf("probes kept arriving after Close: %d -> %d", after, got)
	}
	s.Close() // idempotent
}

// The /v1/workers endpoints: GET lists the fleet, POST add/remove
// mutates it (returning the new state), and validation failures are
// 400s.
func TestWorkersEndpoints(t *testing.T) {
	_, ts := newTestServer(t)

	status, body := get(t, ts, "/v1/workers")
	if status != http.StatusOK || !strings.Contains(string(body), `"workers": []`) {
		t.Fatalf("empty fleet: status %d body %s", status, body)
	}

	status, body = post(t, ts, "/v1/workers", WorkersUpdateRequest{Add: []string{"http://w1:8093", "http://w2:8093"}})
	if status != http.StatusOK {
		t.Fatalf("add: status %d: %s", status, body)
	}
	var resp WorkersResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Workers) != 2 || resp.Workers[0].URL != "http://w1:8093" || resp.Workers[0].Source != WorkerSourceAPI {
		t.Fatalf("add response: %s", body)
	}

	status, body = post(t, ts, "/v1/workers", WorkersUpdateRequest{Remove: []string{"http://w1:8093"}})
	if status != http.StatusOK {
		t.Fatalf("remove: status %d: %s", status, body)
	}
	resp = WorkersResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Workers) != 1 || resp.Workers[0].URL != "http://w2:8093" {
		t.Fatalf("remove response: %s", body)
	}

	if status, _ = post(t, ts, "/v1/workers", WorkersUpdateRequest{}); status != http.StatusBadRequest {
		t.Errorf("empty update: status %d, want 400", status)
	}
	if status, _ = post(t, ts, "/v1/workers", WorkersUpdateRequest{Add: []string{"nope"}}); status != http.StatusBadRequest {
		t.Errorf("bad url: status %d, want 400", status)
	}
}

// /healthz advertises the server's planning capacity for the fleet's
// capacity-weighted assignment.
func TestHealthzAdvertisesCapacity(t *testing.T) {
	s := New(Options{Workers: 6, MaxConcurrent: 2})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	status, body := get(t, ts, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Capacity != 6 || h.MaxConcurrent != 2 {
		t.Fatalf("healthz = %+v, want ok capacity=6 max_concurrent=2", h)
	}
}

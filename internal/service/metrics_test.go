package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mixsoc/internal/core"
	"mixsoc/internal/registry"
)

// promSeries is one parsed sample: the full series key (name plus its
// label set exactly as rendered) and its value.
type promSeries map[string]float64

var (
	promNameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRE = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\["\\n])*)"$`)
)

// parsePrometheus is a strict Prometheus text-format (0.0.4) parser:
// every line must be a # HELP / # TYPE comment or a sample, every
// sample's metric must belong to a declared # TYPE family (summaries
// may append _sum/_count), names and labels must match the format's
// grammar, and no series may repeat. It fails the test on any
// violation, so /metrics stays scrapeable by real collectors.
func parsePrometheus(t *testing.T, text string) promSeries {
	t.Helper()
	series := promSeries{}
	typed := map[string]string{} // family -> type
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || !promNameRE.MatchString(fields[2]) {
				t.Fatalf("line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					t.Fatalf("line %d: unknown metric type %q", lineNo, fields[3])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: stray comment %q", lineNo, line)
		}

		rest := line
		labelPart := ""
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			j := strings.LastIndexByte(rest, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces in %q", lineNo, line)
			}
			labelPart = rest[i+1 : j]
			rest = rest[:i] + rest[j+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || !promNameRE.MatchString(fields[0]) {
			t.Fatalf("line %d: malformed sample %q", lineNo, line)
		}
		name := fields[0]
		value, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", lineNo, line, err)
		}
		family := name
		if typ := typed[strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")]; typ == "summary" || typ == "histogram" {
			family = strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		for _, l := range splitLabels(labelPart) {
			if !promLabelRE.MatchString(l) {
				t.Fatalf("line %d: malformed label %q", lineNo, l)
			}
		}
		key := name
		if labelPart != "" {
			key = name + "{" + labelPart + "}"
		}
		if _, dup := series[key]; dup {
			t.Fatalf("line %d: duplicate series %q", lineNo, key)
		}
		series[key] = value
	}
	if len(typed) == 0 {
		t.Fatal("no metric families found")
	}
	return series
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

func scrape(t *testing.T, ts *httptest.Server) promSeries {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parsePrometheus(t, string(body))
}

// /metrics must be valid exposition-format text whose engine cache
// counters move as repeated identical plan requests hit the caches —
// the scrape-side view of the /v1/designs metrics.
func TestMetricsEndpointParsesAndCountersMove(t *testing.T) {
	_, ts := newTestServer(t)

	before := scrape(t, ts)
	if got := before[`msoc_engine_plans_total`]; got != 0 {
		t.Errorf("plans_total = %v before any request, want 0", got)
	}

	wt := 0.5
	for i := 0; i < 2; i++ {
		if status, body := post(t, ts, "/v1/plan", PlanRequest{Width: 32, WT: &wt}); status != http.StatusOK {
			t.Fatalf("plan %d: status %d: %s", i, status, body)
		}
	}
	after := scrape(t, ts)

	if got := after[`msoc_engine_plans_total`]; got != 2 {
		t.Errorf("plans_total = %v after two plans, want 2", got)
	}
	hits := after[`msoc_engine_schedule_cache_total{result="hit"}`]
	misses := after[`msoc_engine_schedule_cache_total{result="miss"}`]
	if misses == 0 {
		t.Error("schedule cache misses = 0 after a cold plan")
	}
	if hits <= before[`msoc_engine_schedule_cache_total{result="hit"}`] {
		t.Errorf("schedule cache hits did not move across repeated identical plans (hits=%v misses=%v)", hits, misses)
	}
	if got := after[`msoc_http_requests_total{endpoint="/v1/plan",code="200"}`]; got != 2 {
		t.Errorf("http_requests_total{/v1/plan,200} = %v, want 2", got)
	}
	if after[`msoc_http_request_duration_seconds_count{endpoint="/v1/plan"}`] != 2 {
		t.Error("request duration summary did not count the two plans")
	}
	if cap := after[`msoc_pool_capacity`]; cap < 1 {
		t.Errorf("pool capacity = %v, want >= 1", cap)
	}

	// Error responses land on their own code series.
	if status, _ := post(t, ts, "/v1/plan", PlanRequest{Width: 0}); status != http.StatusBadRequest {
		t.Fatalf("invalid plan: status %d, want 400", status)
	}
	final := scrape(t, ts)
	if got := final[`msoc_http_requests_total{endpoint="/v1/plan",code="400"}`]; got != 1 {
		t.Errorf("http_requests_total{/v1/plan,400} = %v, want 1", got)
	}
}

// The module-cache and batch families: present (at zero) on an idle
// scrape so collectors learn the series before traffic, moved by a
// near-duplicate plan and a deduplicating batch call, and still strict
// exposition format throughout.
func TestMetricsModuleCacheAndBatchFamilies(t *testing.T) {
	_, ts := newTestServer(t)

	before := scrape(t, ts)
	for _, key := range []string{
		`msoc_module_cache_stairs_total{result="hit"}`,
		`msoc_module_cache_stairs_total{result="miss"}`,
		`msoc_module_cache_stair_entries`,
		`msoc_module_cache_digital_jobs_total{result="hit"}`,
		`msoc_module_cache_digital_jobs_total{result="miss"}`,
		`msoc_module_cache_digital_job_entries`,
		`msoc_batch_items_total{result="ok"}`,
		`msoc_batch_items_total{result="deduped"}`,
		`msoc_batch_items_total{result="error"}`,
	} {
		if got, ok := before[key]; !ok || got != 0 {
			t.Errorf("idle scrape: %s = %v, %v; want 0, present", key, got, ok)
		}
	}

	// A plan of the default design followed by a near-duplicate of it
	// (one module's pattern count bumped) must reuse the unchanged
	// modules' staircases across the two engine sessions.
	if status, body := post(t, ts, "/v1/plan", PlanRequest{Width: 32}); status != http.StatusOK {
		t.Fatalf("plan: status %d: %s", status, body)
	}
	nd, err := registry.Lookup("p93791m")
	if err != nil {
		t.Fatal(err)
	}
	mods := nd.Digital.Modules
	mods[len(mods)-1].Tests[0].Patterns++
	raw, err := core.MarshalDesign(nd)
	if err != nil {
		t.Fatal(err)
	}
	if status, body := post(t, ts, "/v1/plan", PlanRequest{Width: 32, Design: raw}); status != http.StatusOK {
		t.Fatalf("near-duplicate plan: status %d: %s", status, body)
	}
	cached := scrape(t, ts)
	if got := cached[`msoc_module_cache_stairs_total{result="hit"}`]; got == 0 {
		t.Error("near-duplicate plan produced no module staircase hits")
	}
	if got := cached[`msoc_module_cache_stair_entries`]; got == 0 {
		t.Error("stair entries gauge still 0 after two plans")
	}
	if got := cached[`msoc_module_cache_digital_jobs_total{result="miss"}`]; got == 0 {
		t.Error("digital-jobs cache never built a job slice")
	}

	// One batch: two foldable items, one invalid. The per-item outcome
	// counters and the endpoint's own request series must both move.
	batch := BatchRequest{Items: []PlanRequest{{Width: 32}, {Width: 32}, {Width: 0}}}
	if status, body := post(t, ts, "/v1/batch", batch); status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	after := scrape(t, ts)
	if got := after[`msoc_batch_items_total{result="ok"}`]; got != 2 {
		t.Errorf("batch ok items = %v, want 2", got)
	}
	if got := after[`msoc_batch_items_total{result="deduped"}`]; got != 1 {
		t.Errorf("batch deduped items = %v, want 1", got)
	}
	if got := after[`msoc_batch_items_total{result="error"}`]; got != 1 {
		t.Errorf("batch error items = %v, want 1", got)
	}
	if got := after[`msoc_http_requests_total{endpoint="/v1/batch",code="200"}`]; got != 1 {
		t.Errorf("http_requests_total{/v1/batch,200} = %v, want 1", got)
	}
}

// A coordinator's scrape must carry one shards series per configured
// worker even before any sweep ran, so scrapers see the topology.
func TestMetricsListsConfiguredWorkers(t *testing.T) {
	s := New(Options{WorkerURLs: []string{"http://worker-a:8093/", "http://worker-b:8093"}})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	series := scrape(t, ts)
	for _, w := range []string{"http://worker-a:8093", "http://worker-b:8093"} {
		key := fmt.Sprintf(`msoc_worker_shards_total{result="ok",worker=%q}`, w)
		if _, ok := series[key]; !ok {
			t.Errorf("scrape missing %s", key)
		}
	}
}

// Fleet metrics under dynamic membership: admitting a worker makes its
// series appear, eviction moves the state gauge without rewinding any
// counter, and removal drops the live gauges while every counter the
// worker ever incremented stays on the scrape.
func TestMetricsTrackDynamicMembership(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	worker := newWorker(t)
	s, ts := newTestServer(t)

	// Standalone server: no fleet series at all.
	before := scrape(t, ts)
	for key := range before {
		if strings.HasPrefix(key, "msoc_worker_") || strings.HasPrefix(key, "msoc_fleet_") {
			t.Errorf("standalone scrape already has fleet series %s", key)
		}
	}

	// Admission via the API makes the worker's series appear.
	if status, body := post(t, ts, "/v1/workers", WorkersUpdateRequest{Add: []string{worker.URL}}); status != http.StatusOK {
		t.Fatalf("admit: status %d: %s", status, body)
	}
	admitted := scrape(t, ts)
	stateKey := fmt.Sprintf(`msoc_worker_state{worker=%q}`, worker.URL)
	capKey := fmt.Sprintf(`msoc_worker_capacity{worker=%q}`, worker.URL)
	okKey := fmt.Sprintf(`msoc_worker_shards_total{result="ok",worker=%q}`, worker.URL)
	if got := admitted[stateKey]; got != 1 {
		t.Fatalf("state gauge after admission = %v, want 1 (healthy)", got)
	}
	if got := admitted[capKey]; got < 1 {
		t.Errorf("capacity gauge after admission = %v, want >= 1", got)
	}
	if _, ok := admitted[okKey]; !ok {
		t.Errorf("shards counter not pre-registered for admitted worker")
	}
	if got := admitted[`msoc_fleet_workers{state="healthy"}`]; got != 1 {
		t.Errorf("fleet_workers{healthy} = %v, want 1", got)
	}

	// A sweep through the new member moves its shard counter.
	if status, body := post(t, ts, "/v1/sweep", SweepRequest{Widths: []int{32}, WTs: []float64{0.5}}); status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", status, body)
	}
	sweep := scrape(t, ts)
	shardsOK := sweep[okKey]
	if shardsOK < 1 {
		t.Fatalf("shards{ok} = %v after a distributed sweep, want >= 1", shardsOK)
	}

	// Eviction (threshold consecutive failures) flips the gauges but
	// must not rewind a single counter.
	for i := 0; i < 3; i++ {
		s.fleet.reportFailure(worker.URL, "induced for test")
	}
	evicted := scrape(t, ts)
	if got := evicted[stateKey]; got != 3 {
		t.Fatalf("state gauge after eviction = %v, want 3 (evicted)", got)
	}
	if got := evicted[`msoc_fleet_workers{state="evicted"}`]; got != 1 {
		t.Errorf("fleet_workers{evicted} = %v, want 1", got)
	}
	if got := evicted[okKey]; got != shardsOK {
		t.Fatalf("shards{ok} rewound across eviction: %v -> %v", shardsOK, got)
	}
	suspectKey := fmt.Sprintf(`msoc_worker_transitions_total{to="suspect",worker=%q}`, worker.URL)
	evictedKey := fmt.Sprintf(`msoc_worker_transitions_total{to="evicted",worker=%q}`, worker.URL)
	if evicted[suspectKey] != 1 || evicted[evictedKey] != 1 {
		t.Errorf("transitions = {suspect: %v, evicted: %v}, want 1 each",
			evicted[suspectKey], evicted[evictedKey])
	}

	// Removal drops the live gauges; the history counters stay.
	if status, body := post(t, ts, "/v1/workers", WorkersUpdateRequest{Remove: []string{worker.URL}}); status != http.StatusOK {
		t.Fatalf("remove: status %d: %s", status, body)
	}
	removed := scrape(t, ts)
	if _, ok := removed[stateKey]; ok {
		t.Errorf("state gauge survives removal")
	}
	if _, ok := removed[capKey]; ok {
		t.Errorf("capacity gauge survives removal")
	}
	if got := removed[okKey]; got != shardsOK {
		t.Errorf("shards{ok} after removal = %v, want %v (counters never rewind)", got, shardsOK)
	}
	if removed[suspectKey] != 1 || removed[evictedKey] != 1 {
		t.Errorf("transition counters lost on removal: {suspect: %v, evicted: %v}",
			removed[suspectKey], removed[evictedKey])
	}
}

// The pool families: slots held by holder and the borrow counter come
// from the pool itself, so the scrape that reads them holds no slot
// (unlike msoc_pool_in_flight, which counts every HTTP request, the
// scrape included), a held request slot shows under holder="request",
// and a sweep on an idle pool moves msoc_pool_borrows_total.
func TestMetricsPoolSlotsAndBorrows(t *testing.T) {
	s := New(Options{Workers: 2, MaxConcurrent: 2})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	idle := scrape(t, ts)
	for key, want := range map[string]float64{
		`msoc_pool_capacity`:                 2,
		`msoc_pool_slots{holder="borrowed"}`: 0,
		`msoc_pool_slots{holder="request"}`:  0,
		`msoc_pool_borrows_total`:            0,
		`msoc_pool_in_flight`:                1, // the scrape itself
	} {
		if got, ok := idle[key]; !ok || got != want {
			t.Errorf("idle scrape: %s = %v, %v; want %v, present", key, got, ok, want)
		}
	}

	if err := s.slots.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	held := scrape(t, ts)
	s.slots.Release()
	if got := held[`msoc_pool_slots{holder="request"}`]; got != 1 {
		t.Errorf("request slots with one held = %v, want 1", got)
	}

	if status, body := post(t, ts, "/v1/sweep", SweepRequest{Widths: []int{32, 40}, WTs: []float64{0.5}}); status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", status, body)
	}
	after := scrape(t, ts)
	if got := after[`msoc_pool_borrows_total`]; got < 1 {
		t.Errorf("borrows_total = %v after a sweep on an idle pool, want >= 1", got)
	}
	if got := after[`msoc_pool_slots{holder="borrowed"}`] + after[`msoc_pool_slots{holder="request"}`]; got != 0 {
		t.Errorf("%v slots still held after the sweep answered", got)
	}
}

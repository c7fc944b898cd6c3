package service

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/experiments"
	"mixsoc/internal/registry"
)

// plannableBenchmarks lists the registry benchmarks with analog cores.
func plannableBenchmarks() []string {
	var names []string
	for _, e := range registry.Entries() {
		if e.AnalogCores > 0 {
			names = append(names, e.Name)
		}
	}
	return names
}

// freshBenchmarkHash hashes a newly built copy of a registry design,
// built the way the server builds it.
func freshBenchmarkHash(t *testing.T, name string) string {
	t.Helper()
	d := experiments.Design()
	if name != BenchmarkP93791M {
		var err error
		if d, err = registry.Lookup(name); err != nil {
			t.Fatal(err)
		}
	}
	hash, err := core.DesignHash(d)
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// Planning, sweeping and batching every plannable registry benchmark
// through the server never mutates the memoized designs: re-hashing
// each afterwards equals the hash of a freshly built copy, and so does
// the hash each response reports.
func TestBenchmarkMemoNeverMutated(t *testing.T) {
	s, ts := newTestServer(t)
	wt := 0.25
	var batch BatchRequest
	for _, name := range plannableBenchmarks() {
		want := freshBenchmarkHash(t, name)
		plan := PlanRequest{Benchmark: name, Width: 32, WT: &wt, Bounded: true}
		for _, call := range []struct {
			path string
			body any
		}{
			{"/v1/plan", plan},
			{"/v1/sweep", SweepRequest{Benchmark: name, Widths: []int{32, 48}}},
		} {
			status, body := post(t, ts, call.path, call.body)
			if status != http.StatusOK || !strings.Contains(string(body), want) {
				t.Fatalf("%s %s: status %d, want 200 carrying hash %s: %.200s", call.path, name, status, want, body)
			}
		}
		batch.Items = append(batch.Items, plan, PlanRequest{Benchmark: name, Width: 48, Exhaustive: true})
	}
	if status, body := post(t, ts, "/v1/batch", batch); status != http.StatusOK || strings.Contains(string(body), `"error"`) {
		t.Fatalf("batch: status %d: %.300s", status, body)
	}
	for _, name := range plannableBenchmarks() {
		b := s.benchmarks[name]
		if b == nil || b.design == nil {
			t.Fatalf("benchmark %s was planned but never memoized", name)
		}
		got, err := core.DesignHash(b.design)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshBenchmarkHash(t, name); got != want || b.hash != want {
			t.Errorf("memoized %s re-hashes to %s (memo says %s), a fresh copy to %s", name, got, b.hash, want)
		}
	}
}

// The memo's key set is the registry's names plus "" (the default),
// fixed when the server is built: an unknown benchmark name is still a
// 400 and adds no entry.
func TestUnknownBenchmarkLeavesMemo(t *testing.T) {
	s, ts := newTestServer(t)
	want := append([]string{""}, registry.Names()...)
	for _, name := range []string{"nope", "p93791mm", strings.Repeat("x", 64)} {
		if status, body := post(t, ts, "/v1/plan", PlanRequest{Benchmark: name, Width: 32}); status != http.StatusBadRequest {
			t.Errorf("benchmark %q: status %d, want 400: %s", name, status, body)
		}
		if status, body := post(t, ts, "/v1/sweep", SweepRequest{Benchmark: name, Widths: []int{32}}); status != http.StatusBadRequest {
			t.Errorf("sweep of benchmark %q: status %d, want 400: %s", name, status, body)
		}
	}
	if got := slices.Sorted(maps.Keys(s.benchmarks)); !slices.Equal(got, want) {
		t.Errorf("memo keys %q, want %q", got, want)
	}
	if s.benchmarks[""] != s.benchmarks[BenchmarkP93791M] || s.benchmarks[""] == nil {
		t.Errorf("the default design and %s do not share one memo entry", BenchmarkP93791M)
	}
}

// A design with more than MaxAnalogCores analog cores is a 400 naming
// the bound, on /v1/plan and as a /v1/batch item, before any candidate
// is enumerated.
func TestAnalogCoreCap(t *testing.T) {
	_, ts := newTestServer(t)
	d := experiments.Design()
	for len(d.Analog) <= MaxAnalogCores {
		c := *analog.PaperCores()[len(d.Analog)%5]
		c.Name = fmt.Sprintf("X%d", len(d.Analog))
		d.Analog = append(d.Analog, &c)
	}
	inline, err := core.MarshalDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	bound := fmt.Sprintf("%d-core bound", MaxAnalogCores)
	req := PlanRequest{Design: inline, Width: 32}
	status, body := post(t, ts, "/v1/plan", req)
	if status != http.StatusBadRequest || !strings.Contains(string(body), bound) {
		t.Errorf("plan: status %d, body %s; want 400 naming the %s", status, body, bound)
	}
	status, body = post(t, ts, "/v1/batch", BatchRequest{Items: []PlanRequest{req, {Width: 32}}})
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if it := batch.Items[0]; it.Status != http.StatusBadRequest || !strings.Contains(it.Error, bound) {
		t.Errorf("batch item: status %d, error %q; want 400 naming the %s", it.Status, it.Error, bound)
	}
	if batch.Items[1].Status != http.StatusOK {
		t.Errorf("the batch's valid item: status %d (%s)", batch.Items[1].Status, batch.Items[1].Error)
	}
}

// TestServerPlanHotAllocs pins Server.Plan's allocations on a warmed
// server over the 36 plan-hot bodies (four benchmarks × three widths ×
// three weightings): every design comes from the memo and every
// schedule from the engine's caches, so what is left is request
// validation, candidate filtering, costing and the replay. The ceiling
// sits about 5% above the count measured when the pin was set.
func TestServerPlanHotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s := New(Options{Workers: 1})
	t.Cleanup(s.Close)
	var reqs []PlanRequest
	for _, b := range []string{"p93791m", "d695m", "g1023m", "t512505m"} {
		for _, w := range []int{32, 48, 64} {
			for _, wt := range []float64{0.25, 0.5, 0.75} {
				reqs = append(reqs, PlanRequest{Benchmark: b, Width: w, WT: &wt})
			}
		}
	}
	ctx := context.Background()
	planAll := func() {
		for _, req := range reqs {
			if _, err := s.Plan(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	planAll() // warm the memo, sessions and schedule caches
	const ceiling = 173
	got := testing.AllocsPerRun(10, planAll) / float64(len(reqs))
	t.Logf("%.1f allocs per Server.Plan", got)
	if got > ceiling {
		t.Errorf("%.1f allocs per Server.Plan, ceiling %d", got, ceiling)
	}
}

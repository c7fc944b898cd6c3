package service

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/itc02"
	"mixsoc/internal/registry"
	"mixsoc/internal/socgen"
)

// genSOCText returns a deterministic small generated SOC as .soc text,
// plus the mixed design the service must resolve it to (paper analog
// cores attached, "-m" name suffix).
func genSOCText(t *testing.T, seed int64) (string, *core.Design) {
	t.Helper()
	soc, err := socgen.GenerateSOC(socgen.Options{Seed: seed, Class: socgen.Small})
	if err != nil {
		t.Fatal(err)
	}
	text := itc02.Format(soc)
	return text, &core.Design{Name: soc.Name + "-m", Digital: soc, Analog: analog.PaperCores()}
}

// A plan of an uploaded .soc must be byte-identical to planning the
// same wrapped design directly: upload is a transport, not a dialect.
func TestPlanSOCUploadBitIdenticalToDirect(t *testing.T) {
	_, ts := newTestServer(t)
	text, want := genSOCText(t, 7)
	wt := 0.5
	status, got := post(t, ts, "/v1/plan", PlanRequest{SOC: text, Width: 16, WT: &wt})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}

	res, err := core.NewPlanner(want, 16, core.EqualWeights).CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := core.DesignHash(want)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := WriteJSON(&direct, &PlanResponse{
		DesignHash: hash, Width: 16, Weights: core.EqualWeights, Result: res,
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, direct.Bytes()) {
		t.Fatalf("served upload plan differs from direct call:\nserved %d bytes, direct %d bytes", len(got), direct.Len())
	}
}

// A sweep of an uploaded .soc must match the direct core.SweepWith
// bytes point for point, exactly like the built-in design's sweep.
func TestSweepSOCUploadBitIdenticalToDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	_, ts := newTestServer(t)
	text, want := genSOCText(t, 11)
	req := SweepRequest{SOC: text, Widths: []int{16, 24}, WTs: []float64{0.5}}
	status, got := post(t, ts, "/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}

	points, err := core.SweepWith(want, req.Widths, []core.Weights{{Time: 0.5, Area: 0.5}}, core.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := core.DesignHash(want)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := WriteJSON(&direct, &SweepResponse{DesignHash: hash, Points: points}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, direct.Bytes()) {
		t.Fatal("served upload sweep differs from direct SweepWith bytes")
	}
}

// Hostile and malformed .soc bodies must all come back 400, never 500.
func TestSOCUploadRejections(t *testing.T) {
	_, ts := newTestServer(t)
	valid, _ := genSOCText(t, 7)

	// A parse-valid SOC with an absurd module count.
	big := &itc02.SOC{Name: "absurd"}
	for i := 1; i <= MaxSOCModules+1; i++ {
		big.Modules = append(big.Modules, &itc02.Module{ID: i})
	}

	cases := []struct {
		name string
		req  PlanRequest
		want string
	}{
		{"garbage", PlanRequest{SOC: "not a soc file", Width: 16}, "soc"},
		{"truncated", PlanRequest{SOC: valid[:len(valid)/2], Width: 16}, "soc"},
		{"oversized", PlanRequest{SOC: strings.Repeat("x", MaxSOCBytes+1), Width: 16}, "exceeds"},
		{"too many modules", PlanRequest{SOC: itc02.Format(big), Width: 16}, "modules"},
		{"soc and benchmark", PlanRequest{SOC: valid, Benchmark: "p93791m", Width: 16}, "at most one"},
		{"soc and inline design", PlanRequest{SOC: valid, Design: []byte(`{"name":"x"}`), Width: 16}, "at most one"},
		{"width below analog floor", PlanRequest{SOC: valid, Width: 4}, "width"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts, "/v1/plan", tc.req)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, body)
			}
			if !strings.Contains(strings.ToLower(string(body)), tc.want) {
				t.Errorf("error body should mention %q: %s", tc.want, body)
			}
		})
	}
}

// Repeated uploads of the same .soc must share one engine cache
// session, keyed by the resolved design hash.
func TestSOCUploadCacheHits(t *testing.T) {
	s, ts := newTestServer(t)
	text, want := genSOCText(t, 7)
	hash, err := core.DesignHash(want)
	if err != nil {
		t.Fatal(err)
	}
	wt := 0.5
	for i := 0; i < 3; i++ {
		if status, body := post(t, ts, "/v1/plan", PlanRequest{SOC: text, Width: 16, WT: &wt}); status != http.StatusOK {
			t.Fatalf("upload %d: status %d: %s", i, status, body)
		}
	}
	info := s.Designs()
	if info.Metrics.DesignMisses != 1 {
		t.Errorf("design misses = %d, want 1 (one session for three identical uploads)", info.Metrics.DesignMisses)
	}
	if info.Metrics.DesignHits < 2 {
		t.Errorf("design hits = %d, want at least 2", info.Metrics.DesignHits)
	}
	found := false
	for _, d := range info.Designs {
		if d.Hash == hash {
			found = true
			if d.Name != want.Name {
				t.Errorf("cache session name = %q, want %q", d.Name, want.Name)
			}
		}
	}
	if !found {
		t.Errorf("no cache session for uploaded design hash %s", hash)
	}
}

// Benchmark-by-name requests resolve through the registry; digital-only
// and unknown names are 400s that point at the fix.
func TestBenchmarkRequests(t *testing.T) {
	_, ts := newTestServer(t)
	wt := 0.5
	status, got := post(t, ts, "/v1/plan", PlanRequest{Benchmark: "d695m", Width: 24, WT: &wt})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	d, err := registry.Lookup("d695m")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := core.DesignHash(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), hash) {
		t.Errorf("plan response does not carry the registry design hash %s", hash)
	}

	status, body := post(t, ts, "/v1/plan", PlanRequest{Benchmark: "d695", Width: 24})
	if status != http.StatusBadRequest || !strings.Contains(string(body), "d695m") {
		t.Errorf("digital-only benchmark: status %d, body %s; want 400 naming d695m", status, body)
	}
	status, body = post(t, ts, "/v1/plan", PlanRequest{Benchmark: "nope", Width: 24})
	if status != http.StatusBadRequest {
		t.Errorf("unknown benchmark: status %d, body %s; want 400", status, body)
	}
}

// GET /v1/designs lists every registry benchmark ahead of the live
// cache sessions.
func TestDesignsListsBenchmarks(t *testing.T) {
	s, _ := newTestServer(t)
	info := s.Designs()
	names := map[string]bool{}
	for _, b := range info.Benchmarks {
		names[b.Name] = true
	}
	for _, want := range registry.Names() {
		if !names[want] {
			t.Errorf("GET /v1/designs is missing benchmark %q", want)
		}
	}
	for _, b := range info.Benchmarks {
		if b.Modules <= 0 || b.Description == "" {
			t.Errorf("benchmark %q has empty metadata: %+v", b.Name, b)
		}
	}
}

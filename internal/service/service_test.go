package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mixsoc/internal/core"
	"mixsoc/internal/experiments"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// A served /v1/plan response must be byte-identical to the JSON a
// direct library call produces for the same point — the serving layer
// adds transport, never drift.
func TestPlanEndpointBitIdenticalToDirect(t *testing.T) {
	_, ts := newTestServer(t)
	wt := 0.5
	status, got := post(t, ts, "/v1/plan", PlanRequest{Width: 32, WT: &wt})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}

	// The direct reference: same planner invocation, same response
	// struct, same encoder.
	d := experiments.Design()
	res, err := core.NewPlanner(d, 32, core.EqualWeights).CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := core.DesignHash(d)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteJSON(&want, &PlanResponse{
		DesignHash: hash, Width: 32, Weights: core.EqualWeights, Result: res,
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served plan differs from direct call:\nserved %d bytes, direct %d bytes", len(got), want.Len())
	}

	// And through the exported Plan method (what msoc-plan -json runs).
	srv2 := New(Options{})
	resp, err := srv2.Plan(context.Background(), PlanRequest{Width: 32, WT: &wt})
	if err != nil {
		t.Fatal(err)
	}
	var viaMethod bytes.Buffer
	if err := WriteJSON(&viaMethod, resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, viaMethod.Bytes()) {
		t.Fatal("Server.Plan bytes differ from the HTTP response")
	}
}

// An explicit backend must round-trip like any other solver knob — the
// served response matches a direct planner run with that packer — and
// must never leak into the default path: the same default request
// answers identical bytes before and after a rectangle-backend plan
// (the engine keys schedule caches by backend).
func TestBackendPlanBitIdenticalAndIsolated(t *testing.T) {
	_, ts := newTestServer(t)
	wt := 0.5
	_, before := post(t, ts, "/v1/plan", PlanRequest{Width: 32, WT: &wt})

	status, rect := post(t, ts, "/v1/plan", PlanRequest{Width: 32, WT: &wt, Backend: "rectangle"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, rect)
	}
	d := experiments.Design()
	pk, err := core.PackerFor("rectangle")
	if err != nil {
		t.Fatal(err)
	}
	pl := core.NewPlanner(d, 32, core.EqualWeights)
	pl.Packer = pk
	res, err := pl.CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := core.DesignHash(d)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteJSON(&want, &PlanResponse{
		DesignHash: hash, Width: 32, Weights: core.EqualWeights, Result: res,
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rect, want.Bytes()) {
		t.Fatal("served rectangle plan differs from a direct planner run with the rectangle packer")
	}

	_, after := post(t, ts, "/v1/plan", PlanRequest{Width: 32, WT: &wt})
	if !bytes.Equal(before, after) {
		t.Fatal("default plan bytes changed after a rectangle-backend plan")
	}
}

// A served cold /v1/sweep must match direct mixsoc-level SweepWith
// bit for bit, point for point.
func TestSweepEndpointBitIdenticalToDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	_, ts := newTestServer(t)
	req := SweepRequest{Widths: []int{32, 48}, WTs: []float64{0.5, 0.25}}
	status, got := post(t, ts, "/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}

	d := experiments.Design()
	points, err := core.SweepWith(d, req.Widths,
		[]core.Weights{{Time: 0.5, Area: 0.5}, {Time: 0.25, Area: 0.75}}, core.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hash, err := core.DesignHash(d)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteJSON(&want, &SweepResponse{DesignHash: hash, Points: points}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("served sweep differs from direct SweepWith")
	}
}

// Concurrent plan and sweep requests — same design, varying points —
// must all come back bit-identical to their direct counterparts.
func TestConcurrentRequestsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("many solver runs are slow")
	}
	_, ts := newTestServer(t)

	type point struct {
		width int
		wt    float64
	}
	grid := []point{{32, 0.5}, {32, 0.25}, {40, 0.5}, {48, 0.75}}
	want := make(map[point][]byte)
	d := experiments.Design()
	hash, err := core.DesignHash(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range grid {
		res, err := core.NewPlanner(d, pt.width, core.Weights{Time: pt.wt, Area: 1 - pt.wt}).CostOptimizer()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, &PlanResponse{
			DesignHash: hash, Width: pt.width,
			Weights: core.Weights{Time: pt.wt, Area: 1 - pt.wt}, Result: res,
		}); err != nil {
			t.Fatal(err)
		}
		want[pt] = buf.Bytes()
	}

	const perPoint = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(grid)*perPoint+1)
	for _, pt := range grid {
		for i := 0; i < perPoint; i++ {
			wg.Add(1)
			go func(pt point) {
				defer wg.Done()
				wt := pt.wt
				status, got := post(t, ts, "/v1/plan", PlanRequest{Width: pt.width, WT: &wt})
				if status != http.StatusOK {
					errs <- fmt.Errorf("W=%d wT=%v: status %d: %s", pt.width, pt.wt, status, got)
					return
				}
				if !bytes.Equal(got, want[pt]) {
					errs <- fmt.Errorf("W=%d wT=%v: concurrent response diverged", pt.width, pt.wt)
				}
			}(pt)
		}
	}
	// A concurrent sweep rides along to cross the two endpoints.
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, body := post(t, ts, "/v1/sweep", SweepRequest{Widths: []int{32, 40}})
		if status != http.StatusOK {
			errs <- fmt.Errorf("sweep: status %d: %s", status, body)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The cache session must be visible in /v1/designs, with hit counters
// moving as repeats arrive.
func TestDesignsEndpointReportsCacheMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	wt := 0.5
	for i := 0; i < 2; i++ {
		if status, body := post(t, ts, "/v1/plan", PlanRequest{Width: 32, WT: &wt}); status != http.StatusOK {
			t.Fatalf("plan %d: status %d: %s", i, status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/designs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dr DesignsResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Designs) != 1 || dr.Designs[0].Name != "p93791m" {
		t.Fatalf("designs = %+v, want the p93791m session", dr.Designs)
	}
	if dr.Designs[0].Plans != 2 {
		t.Errorf("plans = %d, want 2", dr.Designs[0].Plans)
	}
	if dr.Metrics.DesignHits < 1 || dr.Metrics.Schedule.Hits == 0 {
		t.Errorf("metrics show no cache reuse after a repeated plan: %+v", dr.Metrics)
	}
}

// Validation failures are 400s with a JSON error body, not 500s.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	bad := []struct {
		path string
		body any
	}{
		{"/v1/plan", PlanRequest{Width: 0}},
		{"/v1/plan", PlanRequest{Width: MaxWidth + 1}},
		{"/v1/plan", func() PlanRequest { wt := 1.5; return PlanRequest{Width: 32, WT: &wt} }()},
		{"/v1/plan", PlanRequest{Width: 32, Benchmark: "no-such-soc"}},
		{"/v1/plan", PlanRequest{Width: 32, Benchmark: "p93791m", Design: json.RawMessage(`{}`)}},
		{"/v1/plan", PlanRequest{Width: 32, Design: json.RawMessage(`{"digital":{}}`)}},
		{"/v1/plan", PlanRequest{Width: 32, Backend: "no-such-backend"}},
		{"/v1/sweep", SweepRequest{}},
		{"/v1/sweep", SweepRequest{Widths: make([]int, MaxSweepCells+1)}},
		{"/v1/sweep", SweepRequest{Widths: []int{32}, Backend: "no-such-backend"}},
		{"/v1/shard", ShardRequest{SweepRequest: SweepRequest{Widths: []int{32}, Backend: "no-such-backend"}, Of: 1}},
		{"/v1/shard", ShardRequest{SweepRequest: SweepRequest{Widths: []int{32}, WarmStart: true}, Of: 1}},
	}
	for _, tc := range bad {
		status, body := post(t, ts, tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s %+v: status %d, want 400 (%s)", tc.path, tc.body, status, body)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.path, body)
		}
	}
	// Unknown fields are rejected, so typos fail loudly.
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"width":32,"exhautsive":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// A request deadline must abort the underlying sweep: a tiny
// timeout_ms on a large exhaustive sweep returns 504 well before the
// sweep could finish, and the server keeps serving afterwards.
func TestRequestDeadlineAbortsSweep(t *testing.T) {
	_, ts := newTestServer(t)
	t0 := time.Now()
	status, body := post(t, ts, "/v1/sweep", SweepRequest{
		Widths:     []int{32, 40, 48, 56, 64},
		WTs:        []float64{0.5, 0.25, 0.75},
		Exhaustive: true,
		TimeoutMS:  20,
	})
	elapsed := time.Since(t0)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, body)
	}
	if elapsed > 10*time.Second {
		t.Errorf("deadline-exceeded sweep took %v; cancellation not prompt", elapsed)
	}
	wt := 0.5
	if status, body := post(t, ts, "/v1/plan", PlanRequest{Width: 32, WT: &wt}); status != http.StatusOK {
		t.Fatalf("plan after aborted sweep: status %d: %s", status, body)
	}
}

// TestRoundRobinPartition pins the shard partition every distributed
// sweep relies on: for any split, each cell index lands in exactly one
// shard, shard s holds exactly s, s+of, s+2·of, …, and out-of-range
// geometries are rejected.
func TestRoundRobinPartition(t *testing.T) {
	for _, n := range []int{1, 15, 21} {
		for _, of := range []int{1, 2, 3, n, n + 5} {
			seen := make([]int, n)
			for s := 0; s < of; s++ {
				idx, err := roundRobin(n, s, of)
				if err != nil {
					t.Fatalf("n=%d shard %d/%d: %v", n, s, of, err)
				}
				var want []int
				for i := s; i < n; i += of {
					want = append(want, i)
				}
				if fmt.Sprint(idx) != fmt.Sprint(want) {
					t.Errorf("n=%d shard %d/%d = %v, want %v", n, s, of, idx, want)
				}
				for _, i := range idx {
					seen[i]++
				}
			}
			for i, c := range seen {
				if c != 1 {
					t.Errorf("n=%d of=%d: index %d in %d shards, want exactly 1", n, of, i, c)
				}
			}
		}
	}
	for _, g := range []struct{ shard, of int }{{-1, 2}, {2, 2}, {0, 0}} {
		if _, err := roundRobin(15, g.shard, g.of); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("shard %d/%d: err = %v, want out-of-range rejection", g.shard, g.of, err)
		}
	}
}

// A POST body is one JSON value. On every POST endpoint, anything but
// whitespace after it is a 400 naming the trailing data, while trailing
// spaces, tabs and newlines leave the status class as it was without
// them (a resubmitted job is a 200 where its first submission was a
// 202).
func TestPostBodyRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t)
	postRaw := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	for _, ep := range []struct{ path, body string }{
		{"/v1/plan", `{"width":32}`},
		{"/v1/batch", `{"items":[{"width":32}]}`},
		{"/v1/sweep", `{"widths":[32]}`},
		{"/v1/shard", `{"widths":[32],"shard":0,"of":1}`},
		{"/v1/sweeps", `{"widths":[32]}`},
		{"/v1/workers", `{"remove":["http://127.0.0.1:1"]}`},
	} {
		want, wantBody := postRaw(ep.path, ep.body)
		if want == http.StatusBadRequest {
			t.Fatalf("%s %s: the bare body is already a 400: %s", ep.path, ep.body, wantBody)
		}
		for _, tail := range []string{"\n", " \t\r\n  "} {
			if got, body := postRaw(ep.path, ep.body+tail); got/100 != want/100 {
				t.Errorf("%s with trailing %q: status %d, want %d: %s", ep.path, tail, got, want, body)
			}
		}
		for _, tail := range []string{" garbage", `{"width":48}`, "]", "}", "\n0", ` "x"`, "null"} {
			got, body := postRaw(ep.path, ep.body+tail)
			if got != http.StatusBadRequest || !strings.Contains(body, "trailing data") {
				t.Errorf("%s with trailing %q: status %d, want 400 naming the trailing data: %s", ep.path, tail, got, body)
			}
		}
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"mixsoc/internal/core"
	"mixsoc/internal/socgen"
)

// rawBatchResponse mirrors BatchResponse with raw item responses, so
// tests can compare an item's JSON against an individual /v1/plan body
// token-for-token.
type rawBatchResponse struct {
	Items []struct {
		Status   int             `json:"status"`
		Response json.RawMessage `json:"response"`
		Error    string          `json:"error"`
	} `json:"items"`
	Deduped int `json:"deduped"`
}

// compact strips JSON whitespace, leaving every token — in particular
// every float literal — byte-for-byte intact.
func compact(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	return buf.Bytes()
}

// TestBatchItemsByteIdenticalToPlan pins the batch contract: every
// item's response carries exactly the tokens the same request gets from
// POST /v1/plan — across benchmarks, widths, weights, the exhaustive
// and bounded solver flags, and an inline design that several items
// share, so their concurrent plans read one resolved design.
func TestBatchItemsByteIdenticalToPlan(t *testing.T) {
	_, ts := newTestServer(t)
	wt25, wt75 := 0.25, 0.75
	inline := nearDupBatch(t, 3, 1).Items[0].Design
	items := []PlanRequest{
		{Width: 32},
		{Width: 24, WT: &wt25},
		{Width: 48, WT: &wt75, Exhaustive: true},
		{Width: 32, Benchmark: "d695m"},
		{Width: 32, Exhaustive: true, Bounded: true},
		{Width: 24, Design: inline},
		{Width: 32, Design: inline, WT: &wt75},
		{Width: 40, Design: inline, Bounded: true},
	}
	status, body := post(t, ts, "/v1/batch", BatchRequest{Items: items})
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var batch rawBatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != len(items) {
		t.Fatalf("batch answered %d items, want %d", len(batch.Items), len(items))
	}
	for i, item := range items {
		got := batch.Items[i]
		if got.Status != http.StatusOK {
			t.Fatalf("item %d: status %d: %s", i, got.Status, got.Error)
		}
		planStatus, planBody := post(t, ts, "/v1/plan", item)
		if planStatus != http.StatusOK {
			t.Fatalf("item %d direct plan: status %d: %s", i, planStatus, planBody)
		}
		if !bytes.Equal(compact(t, got.Response), compact(t, planBody)) {
			t.Errorf("item %d: batch response differs from individual /v1/plan", i)
		}
	}
}

// TestBatchDedupesIdenticalItems: identically-answering items share one
// planning execution and the response says how many were folded.
func TestBatchDedupesIdenticalItems(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.Close)
	wt := 0.5
	items := []PlanRequest{
		{Width: 32},
		{Width: 32, WT: &wt},          // same as item 0 (0.5 is the default)
		{Width: 32, TimeoutMS: 12345}, // timeout is not part of the answer
		{Width: 24},
	}
	before := s.Engine().Metrics().Plans
	resp, err := s.Batch(context.Background(), BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deduped != 2 {
		t.Errorf("Deduped = %d, want 2", resp.Deduped)
	}
	ran := s.Engine().Metrics().Plans - before
	if ran != 2 {
		t.Errorf("engine ran %d plans, want 2 (unique items)", ran)
	}
	for i, item := range resp.Items {
		if item.Status != http.StatusOK || item.Response == nil {
			t.Errorf("item %d: status %d %q", i, item.Status, item.Error)
		}
	}
	// Deduplicated items share the exact response value.
	if a, b := resp.Items[0].Response, resp.Items[1].Response; a != b {
		t.Error("deduped items carry different response pointers")
	}
}

// TestBatchPerItemErrors: invalid items fail alone with the status
// /v1/plan would give them; valid items still plan; the call is 200.
func TestBatchPerItemErrors(t *testing.T) {
	_, ts := newTestServer(t)
	items := []PlanRequest{
		{Width: 0},                            // 400: width
		{Width: 32},                           // ok
		{Width: 32, Benchmark: "no-such-soc"}, // 400: unknown benchmark
		{Width: 32, Benchmark: "no-such-soc"}, // same bad request: stays a singleton
	}
	status, body := post(t, ts, "/v1/batch", BatchRequest{Items: items})
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	wantStatus := []int{http.StatusBadRequest, http.StatusOK, http.StatusBadRequest, http.StatusBadRequest}
	for i, want := range wantStatus {
		if batch.Items[i].Status != want {
			t.Errorf("item %d: status %d, want %d (%s)", i, batch.Items[i].Status, want, batch.Items[i].Error)
		}
	}
	if batch.Items[1].Response == nil {
		t.Error("valid item lost its response")
	}
	if batch.Items[0].Error == "" || batch.Items[2].Error == "" {
		t.Error("failed items carry no error text")
	}
}

// TestBatchValidation: whole-batch failures are call failures.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t)
	status, body := post(t, ts, "/v1/batch", BatchRequest{})
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d: %s", status, body)
	}
	big := BatchRequest{Items: make([]PlanRequest, MaxBatchItems+1)}
	for i := range big.Items {
		big.Items[i] = PlanRequest{Width: 32}
	}
	status, body = post(t, ts, "/v1/batch", big)
	if status != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d: %s", status, body)
	}
}

// TestBatchWiderThanPool: a batch with more unique items than the
// worker pool has slots drains at pool concurrency instead of
// deadlocking (the batch call itself holds no slot).
func TestBatchWiderThanPool(t *testing.T) {
	s := New(Options{Workers: 2, MaxConcurrent: 1})
	t.Cleanup(s.Close)
	wt25, wt75 := 0.25, 0.75
	items := []PlanRequest{
		{Width: 16},
		{Width: 24},
		{Width: 32, WT: &wt25},
		{Width: 32, WT: &wt75},
	}
	resp, err := s.Batch(context.Background(), BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range resp.Items {
		if item.Status != http.StatusOK {
			t.Errorf("item %d: status %d %q", i, item.Status, item.Error)
		}
	}
}

// nearDupBatch is a batch of revisions of the Medium design drawn from
// seed at W=24, each listed twice: revision 0 is the design itself and
// revision v bumps the pattern count of core v-1 by v.
func nearDupBatch(tb testing.TB, seed int64, revisions int) BatchRequest {
	tb.Helper()
	base, err := socgen.Generate(socgen.Options{Seed: seed, Class: socgen.Medium})
	if err != nil {
		tb.Fatal(err)
	}
	items := make([]PlanRequest, 2*revisions)
	for v := range revisions {
		d, err := core.CloneDesign(base)
		if err != nil {
			tb.Fatal(err)
		}
		if v > 0 {
			d.Name = fmt.Sprintf("%s-rev%d", base.Name, v)
			cores := d.Digital.Cores()
			cores[(v-1)%len(cores)].Tests[0].Patterns += v
		}
		design, err := core.MarshalDesign(d)
		if err != nil {
			tb.Fatal(err)
		}
		// Each listing gets its own bytes, as decoding a request body does.
		items[v] = PlanRequest{Design: design, Width: 24}
		items[v+revisions] = PlanRequest{Design: bytes.Clone(design), Width: 24}
	}
	return BatchRequest{Items: items}
}

// TestBatchDuplicateItemsAllocs pins that a batch resolves each distinct
// design source once: on a warm server, listing each of 4 inline
// designs twice may cost only a few allocations per extra item over
// listing each once — far less than resolving an inline design, which
// parses, validates and hashes it.
func TestBatchDuplicateItemsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s := New(Options{Workers: 1})
	t.Cleanup(s.Close)
	twice := nearDupBatch(t, 7, 4)
	once := BatchRequest{Items: twice.Items[:4]}
	ctx := context.Background()
	allocs := func(req BatchRequest) float64 {
		run := func() {
			resp, err := s.Batch(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			for i, item := range resp.Items {
				if item.Status != http.StatusOK {
					t.Fatalf("item %d: status %d: %s", i, item.Status, item.Error)
				}
			}
		}
		run() // warm the sessions and schedule caches
		return testing.AllocsPerRun(10, run)
	}
	a1, a2 := allocs(once), allocs(twice)
	const perItem = 10
	t.Logf("%.1f allocs listing each design once, %.1f listing it twice", a1, a2)
	if a2 > a1+perItem*float64(len(once.Items)) {
		t.Errorf("listing 4 designs twice costs %.1f allocs, over %.1f for once plus %d per duplicate item", a2, a1, perItem)
	}
}

// BenchmarkBatchNearDup measures Server.Batch in process on 16
// near-duplicate revisions of a Medium design, each listed twice, as
// the batch-neardup service workload sends them. Batches cycle over
// four base designs, so the engine's eight design sessions keep
// evicting and every batch admits its revisions anew.
func BenchmarkBatchNearDup(b *testing.B) {
	s := New(Options{})
	b.Cleanup(s.Close)
	reqs := make([]BatchRequest, 4)
	for i := range reqs {
		reqs[i] = nearDupBatch(b, int64(i+1), 16)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := s.Batch(ctx, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCold measures Server.Sweep in process on a fresh Medium
// design per iteration over the sweep-cold service workload's grid:
// widths 16 to 64 in steps of 8 and wT 0.25, 0.5 and 0.75, exhaustive
// and bounded. Generating and encoding each design stays out of the
// timing and the allocation counts, so B/op and allocs/op are the sweep
// path's own.
func BenchmarkSweepCold(b *testing.B) {
	s := New(Options{})
	b.Cleanup(s.Close)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		b.StopTimer()
		d, err := socgen.Generate(socgen.Options{Seed: int64(i + 1), Class: socgen.Medium, Modules: 16 + i%13, AnalogCores: 3 + i%2})
		if err != nil {
			b.Fatal(err)
		}
		design, err := core.MarshalDesign(d)
		if err != nil {
			b.Fatal(err)
		}
		req := SweepRequest{Design: design, Widths: []int{16, 24, 32, 40, 48, 56, 64}, WTs: []float64{0.25, 0.5, 0.75}, Exhaustive: true, Bounded: true}
		b.StartTimer()
		if _, err := s.Sweep(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

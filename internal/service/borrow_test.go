package service

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"mixsoc/internal/core"
	"mixsoc/internal/registry"
)

// jsonBytes is the served encoding of v.
func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// directSweep is the reference for a sweep request: the points of a
// one-worker core.SweepWith over the same design and grid, with no
// pool. sel, when non-nil, restricts it to a shard's cells.
func directSweep(t *testing.T, req SweepRequest, sel func(int, core.Weights) bool) []core.SweepPoint {
	t.Helper()
	sp, err := validateSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	points, err := core.SweepWith(sp.design, sp.widths, sp.weights, core.SweepOptions{
		Exhaustive: req.Exhaustive,
		Bounded:    req.Bounded,
		WarmStart:  req.WarmStart,
		Backend:    req.Backend,
		Workers:    1,
		Select:     sel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// On an idle 2-slot server every sweep borrows the second slot, and the
// served bytes must still equal a one-worker direct sweep for every
// registry design and solver variant — and so must a shard slice.
func TestBorrowingSweepByteIdenticalToOneWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	s := New(Options{Workers: 2, MaxConcurrent: 2})
	t.Cleanup(s.Close)
	ctx := context.Background()
	variants := []struct {
		name string
		req  SweepRequest
	}{
		{"heuristic", SweepRequest{}},
		{"exhaustive", SweepRequest{Exhaustive: true}},
		{"exhaustive+bounded", SweepRequest{Exhaustive: true, Bounded: true}},
		{"rectangle", SweepRequest{Backend: "rectangle"}},
		{"warm_start", SweepRequest{WarmStart: true}},
	}
	for _, name := range registry.Names() {
		if d, err := registry.Lookup(name); err != nil {
			t.Fatal(err)
		} else if len(d.Analog) == 0 {
			continue // digital-only entries are not plannable
		}
		for _, v := range variants {
			req := v.req
			req.Benchmark = name
			req.Widths = []int{24, 40}
			req.WTs = []float64{0.25, 0.75}
			before := s.slots.Stats().Borrows
			resp, err := s.Sweep(ctx, req)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v.name, err)
			}
			if s.slots.Stats().Borrows == before {
				t.Errorf("%s/%s: the sweep never borrowed the idle slot", name, v.name)
			}
			want := &SweepResponse{DesignHash: resp.DesignHash, Points: directSweep(t, req, nil)}
			if !bytes.Equal(jsonBytes(t, resp), jsonBytes(t, want)) {
				t.Errorf("%s/%s: borrowing sweep differs from a one-worker SweepWith", name, v.name)
			}
		}
	}

	// A shard slice: its cells solved through Select under the pool.
	shard := ShardRequest{
		SweepRequest: SweepRequest{Widths: []int{24, 32, 40}, WTs: []float64{0.25, 0.5, 0.75}, Exhaustive: true, Bounded: true},
		Shard:        1,
		Of:           3,
	}
	resp, err := s.Shard(ctx, shard)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := validateSweep(shard.SweepRequest)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := roundRobin(sp.cells(), shard.Shard, shard.Of)
	if err != nil {
		t.Fatal(err)
	}
	own := map[string]bool{}
	for _, i := range idx {
		own[fmt.Sprint(sp.widths[i%len(sp.widths)], sp.weights[i/len(sp.widths)].Time)] = true
	}
	points := directSweep(t, shard.SweepRequest, func(w int, wt core.Weights) bool { return own[fmt.Sprint(w, wt.Time)] })
	want := &ShardResponse{DesignHash: sp.hash, Shard: shard.Shard, Of: shard.Of, Points: points}
	if !bytes.Equal(jsonBytes(t, resp), jsonBytes(t, want)) {
		t.Error("borrowing shard differs from a one-worker Select sweep")
	}
	if st := s.slots.Stats(); st.Request != 0 || st.Borrowed != 0 {
		t.Errorf("idle server still holds slots: %+v", st)
	}
}

// Plans, sweeps and a batch racing for one small pool: sweeps borrow
// whatever the plans leave idle, plans queue behind borrowed cells, and
// every answer must carry the bytes a one-slot server (which can never
// borrow) gives for the same request. Run it under -race.
func TestConcurrentMixedTrafficByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("many solver runs are slow")
	}
	wt := func(v float64) *float64 { return &v }
	plans := []PlanRequest{
		{Width: 32, WT: wt(0.5)},
		{Width: 40, WT: wt(0.25), Exhaustive: true, Bounded: true},
		{Benchmark: "d695m", Width: 24, WT: wt(0.75)},
	}
	sweeps := []SweepRequest{
		{Widths: []int{24, 32, 40}, WTs: []float64{0.25, 0.75}, Exhaustive: true, Bounded: true},
		{Benchmark: "d695m", Widths: []int{16, 24, 32}, WTs: []float64{0.5, 0.25}},
	}
	batch := BatchRequest{Items: []PlanRequest{plans[0], plans[2], {Benchmark: "g1023m", Width: 32}}}

	ref := New(Options{Workers: 1, MaxConcurrent: 1})
	t.Cleanup(ref.Close)
	ctx := context.Background()
	want := map[string][]byte{}
	for i, req := range plans {
		resp, err := ref.Plan(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprint("plan", i)] = jsonBytes(t, resp)
	}
	for i, req := range sweeps {
		resp, err := ref.Sweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprint("sweep", i)] = jsonBytes(t, resp)
	}
	bresp, err := ref.Batch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	want["batch"] = jsonBytes(t, bresp)
	if ref.slots.Stats().Borrows != 0 {
		t.Fatal("a one-slot server borrowed")
	}

	s := New(Options{Workers: 3, MaxConcurrent: 3})
	t.Cleanup(s.Close)
	var wg sync.WaitGroup
	// check runs on the request goroutines, so it reports with t.Error.
	check := func(key string, resp any, err error) {
		var got bytes.Buffer
		if err == nil {
			err = WriteJSON(&got, resp)
		}
		if err != nil {
			t.Errorf("%s: %v", key, err)
		} else if !bytes.Equal(got.Bytes(), want[key]) {
			t.Errorf("%s: answer under borrowing differs from the one-slot server's", key)
		}
	}
	for round := 0; round < 3; round++ {
		for i, req := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := s.Plan(ctx, req)
				check(fmt.Sprint("plan", i), resp, err)
			}()
		}
		for i, req := range sweeps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := s.Sweep(ctx, req)
				check(fmt.Sprint("sweep", i), resp, err)
			}()
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := s.Batch(ctx, batch)
		check("batch", resp, err)
	}()
	wg.Wait()
	if st := s.slots.Stats(); st.Request != 0 || st.Borrowed != 0 {
		t.Errorf("server still holds slots after the traffic: %+v", st)
	}
}

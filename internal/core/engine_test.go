package core

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"mixsoc/internal/tam"
)

// variantDesign returns a design whose content differs from the paper
// benchmark, for exercising multi-session engines.
func variantDesign() *Design {
	d := warmTestDesign()
	d.Name = "p93791m-variant"
	d.Analog[0].Tests[0].Cycles += 1000
	return d
}

// sameResult compares the planning outcomes that the golden tables pin:
// cost bits, NEval, and the selected configuration.
func sameResult(a, b *Result) bool {
	return a.Best.Cost == b.Best.Cost && a.NEval == b.NEval &&
		a.Best.Partition.Key(nil) == b.Best.Partition.Key(nil) &&
		a.Best.TestTime == b.Best.TestTime
}

// Engine results must be bit-identical to the one-shot free functions,
// on the first (cold) call and on cache hits alike — including across
// separately allocated copies of the same design.
func TestEngineBitIdenticalToDirect(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()

	direct, err := NewPlanner(warmTestDesign(), 32, EqualWeights).CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := eng.Plan(ctx, warmTestDesign(), 32, EqualWeights)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Plan(ctx, warmTestDesign(), 32, EqualWeights)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(direct, cold) || !sameResult(direct, warm) {
		t.Fatal("engine Plan diverges from direct Plan")
	}
	m := eng.Metrics()
	if m.Designs != 1 || m.DesignMisses != 1 || m.DesignHits < 1 {
		t.Errorf("metrics after two plans of one design: %+v", m)
	}
	if m.Schedule.Hits == 0 {
		t.Error("second plan did not hit the schedule cache")
	}

	ex, err := eng.PlanExhaustive(ctx, warmTestDesign(), 32, EqualWeights)
	if err != nil {
		t.Fatal(err)
	}
	exDirect, err := NewPlanner(warmTestDesign(), 32, EqualWeights).Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(exDirect, ex) {
		t.Fatal("engine PlanExhaustive diverges from direct Exhaustive")
	}

	s, err := eng.Schedule(ctx, warmTestDesign(), warmTestDesign().AllShare(), 32, "")
	if err != nil {
		t.Fatal(err)
	}
	sd, err := testSchedule(warmTestDesign(), 32, warmTestDesign().AllShare())
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != sd.Makespan {
		t.Fatalf("engine Schedule makespan %d != direct %d", s.Makespan, sd.Makespan)
	}
}

// An engine's sweep must match one unwired planner per grid point,
// each with private caches, on every backend — so the shared caches
// only deduplicate work — and a repeat sweep (served largely from the
// session caches) must not drift.
func TestEngineSweepBitIdenticalToDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	widths := []int{32, 48}
	weights := []Weights{EqualWeights, {Time: 0.25, Area: 0.75}}

	for _, backend := range []string{tam.BackendOccupancy, tam.BackendRectangle, BackendTournament} {
		var direct []*Result
		for _, wt := range weights {
			for _, w := range widths {
				pl := NewPlanner(warmTestDesign(), w, wt)
				pk, err := PackerFor(backend)
				if err != nil {
					t.Fatal(err)
				}
				pl.Packer = pk
				res, err := pl.CostOptimizer()
				if err != nil {
					t.Fatal(err)
				}
				direct = append(direct, res)
			}
		}
		for round := 0; round < 2; round++ {
			got, err := eng.Sweep(ctx, warmTestDesign(), widths, weights, SweepOptions{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(direct) {
				t.Fatalf("%s round %d: %d points, want %d", backend, round, len(got), len(direct))
			}
			for i := range got {
				if got[i].Width != widths[i%len(widths)] || got[i].Weights != weights[i/len(widths)] ||
					!sameResult(got[i].Result, direct[i]) {
					t.Fatalf("%s round %d point %d: engine sweep diverges from direct", backend, round, i)
				}
			}
		}
	}

	// A warm-started sweep must leave the cold caches untouched: a cold
	// plan afterwards still reproduces the direct result bit for bit.
	before := eng.Metrics().Schedules
	if _, err := eng.Sweep(ctx, warmTestDesign(), []int{32, 40, 48}, []Weights{EqualWeights},
		SweepOptions{WarmStart: true}); err != nil {
		t.Fatal(err)
	}
	if after := eng.Metrics().Schedules; after != before {
		t.Errorf("warm sweep changed the shared cold caches: %d -> %d schedules", before, after)
	}
	again, err := eng.Plan(ctx, warmTestDesign(), 32, EqualWeights)
	if err != nil {
		t.Fatal(err)
	}
	directPlan, err := NewPlanner(warmTestDesign(), 32, EqualWeights).CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(directPlan, again) {
		t.Fatal("cold plan after a warm sweep diverged")
	}
}

// Many goroutines planning the same and different designs through one
// engine must all get the sequential answers (run with -race in CI).
func TestEngineConcurrentUse(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 1})
	ctx := context.Background()

	refBase, err := NewPlanner(warmTestDesign(), 32, EqualWeights).CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	refVar, err := NewPlanner(variantDesign(), 32, EqualWeights).CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	if sameResult(refBase, refVar) && refBase.Best.TestTime == refVar.Best.TestTime {
		t.Log("variant design happens to plan identically; sessions still exercised")
	}

	const goroutines = 16
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Even goroutines plan the benchmark, odd ones the variant;
			// every call passes a fresh design value, so the content-hash
			// canonicalization is what makes the sessions shared.
			mk, want := warmTestDesign, refBase
			if g%2 == 1 {
				mk, want = variantDesign, refVar
			}
			for i := 0; i < 3; i++ {
				res, err := eng.Plan(ctx, mk(), 32, EqualWeights)
				if err != nil {
					errs[g] = err
					return
				}
				if !sameResult(want, res) {
					errs[g] = errors.New("concurrent engine result diverged from sequential reference")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	m := eng.Metrics()
	if m.Designs != 2 {
		t.Errorf("engine holds %d designs, want 2", m.Designs)
	}
	if m.DesignHits+m.DesignMisses != goroutines*3 {
		t.Errorf("design lookups = %d, want %d", m.DesignHits+m.DesignMisses, goroutines*3)
	}
}

// A cancelled context must abort a sweep promptly — well under the
// sweep's own runtime — and leave the engine's caches consistent: the
// same sweep afterwards completes and is bit-identical to a direct
// cold sweep.
func TestEngineCancellationMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	eng := NewEngine(EngineOptions{})
	widths := []int{32, 40, 48, 56, 64}
	weights := []Weights{EqualWeights, {Time: 0.25, Area: 0.75}, {Time: 0.75, Area: 0.25}}
	opt := SweepOptions{Exhaustive: true}

	// Reference runtime of the full sweep, uncached.
	t0 := time.Now()
	direct, err := SweepWith(warmTestDesign(), widths, weights, opt)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 = time.Now()
	_, err = eng.Sweep(ctx, warmTestDesign(), widths, weights, opt)
	aborted := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled sweep returned %v, want context.DeadlineExceeded", err)
	}
	// Prompt: far from running the sweep to completion after the
	// deadline. The bound is deliberately loose for noisy CI boxes.
	if limit := full/2 + 500*time.Millisecond; aborted > limit {
		t.Errorf("cancelled sweep took %v (full sweep %v); cancellation not prompt", aborted, full)
	}

	// The same engine must now complete the sweep with results
	// bit-identical to the direct cold sweep: no aborted packing may
	// have been memoized.
	got, err := eng.Sweep(context.Background(), warmTestDesign(), widths, weights, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(direct) {
		t.Fatalf("%d points after cancellation, want %d", len(got), len(direct))
	}
	for i := range got {
		if !sameResult(got[i].Result, direct[i].Result) {
			t.Fatalf("point %d (W=%d): post-cancellation sweep diverges from direct", i, got[i].Width)
		}
	}
}

// A caller waiting on another request's in-flight schedule
// computation must honor its OWN context: a short deadline returns
// promptly even while the owner is still packing, and the entry
// completes normally for later callers.
func TestWaiterHonorsOwnContext(t *testing.T) {
	d := warmTestDesign()
	cache := NewScheduleCache()
	p := d.AllShare()
	key := p.Key(nil)

	// Simulate a slow in-flight owner: create the entry by hand and
	// leave it incomplete.
	ent, owner := cache.entry(key)
	if !owner {
		t.Fatal("entry unexpectedly existed")
	}

	ev := testEvaluator(d, 32, cache)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := ev.schedule(ctx, p, p.Key(nil))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter returned %v, want its own context.DeadlineExceeded", err)
	}
	if waited := time.Since(t0); waited > 5*time.Second {
		t.Fatalf("waiter blocked %v past its 30ms deadline", waited)
	}

	// The owner eventually completes; subsequent calls serve the entry.
	ev.fill(nil, p, key, ent)
	s, err := ev.schedule(context.Background(), p, p.Key(nil))
	if err != nil || s == nil {
		t.Fatalf("post-completion schedule = (%v, %v)", s, err)
	}
	if cache.peek(key) != s {
		t.Error("completed entry not served from the cache")
	}
}

// A session's schedule caches are bounded per width: scanning many
// widths never grows the session past MaxWidthCaches, and an evicted
// width still plans correctly (just cold again).
func TestEngineWidthCacheLRUBound(t *testing.T) {
	eng := NewEngine(EngineOptions{MaxWidthCaches: 2})
	ctx := context.Background()
	ref, err := NewPlanner(warmTestDesign(), 24, EqualWeights).CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{24, 28, 32, 36, 40} {
		if _, err := eng.Plan(ctx, warmTestDesign(), w, EqualWeights); err != nil {
			t.Fatal(err)
		}
	}
	infos := eng.Designs()
	if len(infos) != 1 {
		t.Fatalf("sessions = %d, want 1", len(infos))
	}
	if len(infos[0].Widths) != 2 {
		t.Fatalf("width caches = %v, want the 2 most recent", infos[0].Widths)
	}
	for _, w := range infos[0].Widths {
		if w != 36 && w != 40 {
			t.Errorf("width %d survived, want only the most recently used (36, 40)", w)
		}
	}
	// Replanning an evicted width is a cold recompute, bit-identical.
	res, err := eng.Plan(ctx, warmTestDesign(), 24, EqualWeights)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(ref, res) {
		t.Error("replan of an evicted width diverged")
	}
}

// The LRU bound evicts whole design sessions, least recently used
// first, without ever changing results.
func TestEngineLRUEviction(t *testing.T) {
	eng := NewEngine(EngineOptions{MaxDesigns: 1})
	ctx := context.Background()
	ref, err := NewPlanner(warmTestDesign(), 32, EqualWeights).CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Plan(ctx, warmTestDesign(), 32, EqualWeights); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Plan(ctx, variantDesign(), 32, EqualWeights); err != nil {
			t.Fatal(err)
		}
	}
	m := eng.Metrics()
	if m.Designs != 1 {
		t.Errorf("engine holds %d designs, want 1 (MaxDesigns)", m.Designs)
	}
	if m.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2 for alternating designs at capacity 1", m.Evictions)
	}
	res, err := eng.Plan(ctx, warmTestDesign(), 32, EqualWeights)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(ref, res) {
		t.Error("post-eviction plan diverged from the direct result")
	}
	infos := eng.Designs()
	if len(infos) != 1 || infos[0].Name != "p93791m" {
		t.Errorf("Designs() = %+v, want the benchmark session only", infos)
	}
}

// The lifetime counters Metrics exposes for scraping must be monotonic:
// evicting a session may shrink the live Schedule stats, but Plans and
// ScheduleTotal must only ever grow (a Prometheus counter that rewinds
// breaks every rate() over it).
func TestEngineMetricsMonotonicAcrossEviction(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(EngineOptions{MaxDesigns: 1, Workers: 2})

	var prev EngineMetrics
	check := func(step string) {
		m := eng.Metrics()
		if m.Plans < prev.Plans {
			t.Errorf("%s: Plans rewound %d -> %d", step, prev.Plans, m.Plans)
		}
		if m.ScheduleTotal.Hits < prev.ScheduleTotal.Hits || m.ScheduleTotal.Misses < prev.ScheduleTotal.Misses {
			t.Errorf("%s: ScheduleTotal rewound %+v -> %+v", step, prev.ScheduleTotal, m.ScheduleTotal)
		}
		prev = m
	}

	// Alternate two designs through a 1-session engine: every switch
	// evicts the other design's caches, which previously took their
	// hit/miss counters with them.
	for i := 0; i < 3; i++ {
		if _, err := eng.Plan(ctx, warmTestDesign(), 32, EqualWeights); err != nil {
			t.Fatal(err)
		}
		check("benchmark plan")
		if _, err := eng.Plan(ctx, variantDesign(), 32, EqualWeights); err != nil {
			t.Fatal(err)
		}
		check("variant plan")
	}
	m := eng.Metrics()
	if m.Plans != 6 {
		t.Errorf("Plans = %d, want 6", m.Plans)
	}
	if m.Evictions == 0 {
		t.Fatal("test never evicted; ScheduleTotal monotonicity unexercised")
	}
	if total, live := m.ScheduleTotal.Misses, m.Schedule.Misses; total <= live {
		t.Errorf("ScheduleTotal.Misses = %d not above live Schedule.Misses = %d despite evictions", total, live)
	}

	// Width-LRU eviction inside one session must fold counters too.
	eng2 := NewEngine(EngineOptions{MaxWidthCaches: 1, Workers: 2})
	for _, w := range []int{24, 32, 24} {
		if _, err := eng2.Plan(ctx, warmTestDesign(), w, EqualWeights); err != nil {
			t.Fatal(err)
		}
	}
	m2 := eng2.Metrics()
	if m2.ScheduleTotal.Misses <= m2.Schedule.Misses {
		t.Errorf("width eviction dropped counters: total %+v, live %+v", m2.ScheduleTotal, m2.Schedule)
	}
}

// packs sums an engine's packs over every backend, failed ones too.
func packs(m EngineMetrics) uint64 {
	var n uint64
	for _, st := range m.BackendPacks {
		n += st.OK + st.Errors
	}
	return n
}

// ScheduleTotal must count every pack once, including the packs a
// planner finishes into a cache the LRU bounds already dropped: a sweep
// over two widths with one width cache per session evicts the first
// width's cache before its cells pack, and concurrent plans of two
// designs through a one-session engine evict each other's sessions
// mid-plan, and a WarmStart sweep packs into private caches no session
// holds. With nothing evicted it equals the live counters, hits
// included.
func TestScheduleTotalCountsEveryPack(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(EngineOptions{Workers: 2})
	for range 2 {
		if _, err := eng.Plan(ctx, warmTestDesign(), 32, EqualWeights); err != nil {
			t.Fatal(err)
		}
	}
	if m := eng.Metrics(); m.ScheduleTotal != m.Schedule || m.Schedule.Hits == 0 || m.Schedule.Misses != packs(m) {
		t.Errorf("no eviction: ScheduleTotal %+v, live %+v, packs %d", m.ScheduleTotal, m.Schedule, packs(m))
	}

	eng = NewEngine(EngineOptions{MaxWidthCaches: 1, Workers: 2})
	if _, err := eng.Sweep(ctx, warmTestDesign(), []int{16, 24}, []Weights{EqualWeights}, SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.ScheduleTotal.Misses != packs(m) || m.ScheduleTotal.Misses <= m.Schedule.Misses {
		t.Errorf("width eviction: ScheduleTotal.Misses = %d, packs %d, live misses %d",
			m.ScheduleTotal.Misses, packs(m), m.Schedule.Misses)
	}

	// A WarmStart sweep packs into private caches the session never
	// holds; their packs still count.
	eng = NewEngine(EngineOptions{Workers: 2})
	if _, err := eng.Sweep(ctx, warmTestDesign(), []int{24, 32, 40}, []Weights{EqualWeights}, SweepOptions{WarmStart: true}); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); packs(m) == 0 || m.ScheduleTotal.Misses != packs(m) {
		t.Errorf("warm start: ScheduleTotal.Misses = %d, packs %d", m.ScheduleTotal.Misses, packs(m))
	}

	eng = NewEngine(EngineOptions{MaxDesigns: 1, Workers: 2})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mk := warmTestDesign
			if g%2 == 1 {
				mk = variantDesign
			}
			for _, w := range []int{16, 24, 32} {
				if _, err := eng.PlanWith(ctx, mk(), w, EqualWeights, PlanOptions{Bounded: g%4 < 2}); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	m := eng.Metrics()
	if m.Evictions == 0 {
		t.Fatal("no session was evicted; the concurrent case tests nothing")
	}
	if m.ScheduleTotal.Misses != packs(m) {
		t.Errorf("session eviction: ScheduleTotal.Misses = %d, packs %d", m.ScheduleTotal.Misses, packs(m))
	}
}

// An empty backend selection resolves to the occupancy packer: it shares
// occupancy's schedule cache — an explicit "occupancy" plan after a
// default one packs nothing new — and its packs count under occupancy.
func TestEngineDefaultBackendIsOccupancy(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 1})
	ctx := context.Background()
	def, err := eng.PlanWith(ctx, warmTestDesign(), 32, EqualWeights, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Metrics()
	occ, err := eng.PlanWith(ctx, warmTestDesign(), 32, EqualWeights, PlanOptions{Backend: tam.BackendOccupancy})
	if err != nil {
		t.Fatal(err)
	}
	after := eng.Metrics()
	if !sameResult(def, occ) {
		t.Fatal("occupancy plan diverges from the default plan")
	}
	if after.Schedule.Misses != before.Schedule.Misses || after.Schedules != before.Schedules {
		t.Errorf("occupancy plan after a default plan packed anew: misses %d -> %d, schedules %d -> %d",
			before.Schedule.Misses, after.Schedule.Misses, before.Schedules, after.Schedules)
	}
	if packs := before.BackendPacks[tam.BackendOccupancy].OK; packs == 0 || packs != before.Schedule.Misses {
		t.Errorf("default packs counted under occupancy = %d, want the %d schedule misses", packs, before.Schedule.Misses)
	}
}

// A caller-supplied DesignHash only saves the engine a hash: plans and
// sweeps given it are bit-identical to the same calls without it and
// land on the same session. A miss still validates the design.
func TestEngineTrustsCallerDesignHash(t *testing.T) {
	ctx := context.Background()
	hash, err := DesignHash(warmTestDesign())
	if err != nil {
		t.Fatal(err)
	}
	encode := func(v any) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	weights := []Weights{EqualWeights, {Time: 0.25, Area: 0.75}}
	calls := []struct {
		name string
		run  func(e *Engine, hash string) (any, error)
	}{
		{"plan", func(e *Engine, hash string) (any, error) {
			return e.PlanWith(ctx, warmTestDesign(), 32, EqualWeights, PlanOptions{Bounded: true, DesignHash: hash})
		}},
		{"sweep", func(e *Engine, hash string) (any, error) {
			return e.Sweep(ctx, warmTestDesign(), []int{32}, weights, SweepOptions{DesignHash: hash})
		}},
	}
	for _, c := range calls {
		// Either order: the first call creates the session, the second
		// hits it.
		for _, order := range [][2]string{{"", hash}, {hash, ""}} {
			e := NewEngine(EngineOptions{Workers: 1})
			first, err := c.run(e, order[0])
			if err != nil {
				t.Fatal(err)
			}
			before := e.Metrics()
			second, err := c.run(e, order[1])
			if err != nil {
				t.Fatal(err)
			}
			after := e.Metrics()
			if encode(first) != encode(second) {
				t.Errorf("%s (hashes %q then %q): results differ", c.name, order[0], order[1])
			}
			if before.DesignMisses != 1 || after.DesignMisses != 1 || after.DesignHits-before.DesignHits != 1 {
				t.Errorf("%s (hashes %q then %q): misses %d -> %d, hits +%d; want one session, hit by the second call",
					c.name, order[0], order[1], before.DesignMisses, after.DesignMisses, after.DesignHits-before.DesignHits)
			}
		}
	}

	bad := warmTestDesign()
	bad.Digital = nil
	if _, err := NewEngine(EngineOptions{}).PlanWith(ctx, bad, 32, EqualWeights, PlanOptions{DesignHash: hash}); err == nil {
		t.Error("a session miss planned an invalid design")
	}
	// Without a hash the engine validates before hashing, so a
	// malformed design is an error, not a panic inside DesignHash.
	bad = warmTestDesign()
	bad.Digital.Modules = append(bad.Digital.Modules, nil)
	if _, err := NewEngine(EngineOptions{}).PlanWith(ctx, bad, 32, EqualWeights, PlanOptions{}); err == nil {
		t.Error("planned a design with a nil module")
	}
}

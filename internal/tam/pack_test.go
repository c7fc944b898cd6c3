package tam

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mixsoc/internal/wrapper"
)

// WithFullStaircase makes the packer consider every width from the
// narrowest option up to the bin width, synthesizing flat staircase
// steps, instead of only the strictly-improving Pareto points. It
// measures the value of Pareto pruning (BenchmarkAblationParetoPruning);
// it never improves the result.
func WithFullStaircase() Option {
	return func(c *config) { c.paretoOnly = false }
}

// fitterFor builds a fitter over the jobs of a hand-made schedule, the
// way optimize would, with the schedule loaded onto its board.
func fitterFor(s *Schedule, extra ...*Job) *fitter {
	jobs := append([]*Job(nil), extra...)
	for i := range s.Placements {
		jobs = append(jobs, s.Placements[i].Job)
	}
	cfg := config{improvePasses: len(jobs), paretoOnly: true}
	f := newFitter(newOptionTable(jobs, s.Width, cfg), s.Width, cfg)
	f.prepare(s.Placements)
	return f
}

// Regression for the monotonicity gap where improve gave up at the first
// makespan-defining job it could not move instead of trying the next
// one: job a is pinned at the makespan by its serialization group, and
// must not stop the loop from re-placing job b into the idle prefix of
// wire 1.
func TestImproveTriesNextMakespanDefiningJob(t *testing.T) {
	f1 := groupJob("f1", "g", 1, 12)
	a := groupJob("a", "g", 1, 3)
	b := fixedJob("b", 1, 10)
	s := &Schedule{Width: 2, Makespan: 15, Placements: []Placement{
		{Job: f1, Width: 1, Start: 0, End: 12, WireLo: 0},
		{Job: a, Width: 1, Start: 12, End: 15, WireLo: 0},
		{Job: b, Width: 1, Start: 5, End: 15, WireLo: 1},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("test scenario invalid: %v", err)
	}

	improve(s, fitterFor(s))

	if err := s.Validate(); err != nil {
		t.Fatalf("improve produced invalid schedule: %v", err)
	}
	if s.Makespan != 15 {
		t.Errorf("makespan = %d, want 15 (a is pinned by its group)", s.Makespan)
	}
	ends := map[string]int64{}
	for i := range s.Placements {
		ends[s.Placements[i].Job.ID] = s.Placements[i].End
	}
	if ends["a"] != 15 {
		t.Errorf("a.End = %d, want 15 (group-pinned)", ends["a"])
	}
	// The old loop returned as soon as a failed to move; the fixed loop
	// goes on to re-place b at the front of wire 1.
	if ends["b"] != 10 {
		t.Errorf("b.End = %d, want 10 (re-placed after the stuck job)", ends["b"])
	}
}

// Improvement must be able to chain: moving one makespan-defining job
// can free the space that unsticks another on the next pass.
func TestImproveChainsAcrossPasses(t *testing.T) {
	// Wire 0 busy [0,12); a ([12,15), w1) and b ([11,15), w2) both end at
	// the 15-cycle makespan. b can drop into wires 1-2 at time 0; once it
	// has, a fits behind it at [4,7) and the makespan falls to 12.
	f1 := fixedJob("f1", 1, 12)
	a := fixedJob("a", 1, 3)
	b := fixedJob("b", 2, 4)
	s := &Schedule{Width: 3, Makespan: 15, Placements: []Placement{
		{Job: f1, Width: 1, Start: 0, End: 12, WireLo: 0},
		{Job: a, Width: 1, Start: 12, End: 15, WireLo: 1},
		{Job: b, Width: 2, Start: 11, End: 15, WireLo: 1},
	}}
	if err := s.Validate(); err == nil {
		// a and b overlap above — rebuild the intended layout.
		t.Fatal("scenario sanity check failed")
	}
	s.Placements[1] = Placement{Job: a, Width: 1, Start: 12, End: 15, WireLo: 0}
	if err := s.Validate(); err != nil {
		t.Fatalf("test scenario invalid: %v", err)
	}

	improve(s, fitterFor(s))

	if err := s.Validate(); err != nil {
		t.Fatalf("improve produced invalid schedule: %v", err)
	}
	if s.Makespan != 12 {
		t.Errorf("makespan = %d, want 12 after chained improvement\n%s", s.Makespan, s.Gantt(40))
	}
}

func TestRepackAndImproveAreMonotoneAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		width := 3 + rng.Intn(14)
		n := 5 + rng.Intn(11)
		var jobs []*Job
		for i := 0; i < n; i++ {
			w := 1 + rng.Intn(width)
			tt := int64(1 + rng.Intn(80))
			j := &Job{ID: string(rune('a' + i)), Options: []wrapper.Point{{Width: w, Time: tt}}}
			if rng.Intn(3) == 0 {
				j.Group = "grp" + string(rune('0'+rng.Intn(2)))
			}
			jobs = append(jobs, j)
		}
		cfg := config{improvePasses: len(jobs), paretoOnly: true}
		f := newFitter(newOptionTable(jobs, width, cfg), width, cfg)
		// Greedy pass without polish, in insertion order.
		s := &Schedule{Width: width}
		for _, j := range jobs {
			p, ok := f.bestPlacement(j, math.MaxInt64)
			if !ok {
				t.Fatalf("trial %d: could not place %s", trial, j.ID)
			}
			f.place(s, p)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: greedy schedule invalid: %v", trial, err)
		}

		before := s.Makespan
		endsBefore := map[string]int64{}
		for i := range s.Placements {
			endsBefore[s.Placements[i].Job.ID] = s.Placements[i].End
		}
		repack(s, f)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: repack produced invalid schedule: %v", trial, err)
		}
		if s.Makespan > before {
			t.Fatalf("trial %d: repack increased makespan %d -> %d", trial, before, s.Makespan)
		}
		for i := range s.Placements {
			p := &s.Placements[i]
			if p.End > endsBefore[p.Job.ID] {
				t.Fatalf("trial %d: repack moved %s later: %d -> %d",
					trial, p.Job.ID, endsBefore[p.Job.ID], p.End)
			}
		}

		mid := s.Makespan
		improve(s, f)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: improve produced invalid schedule: %v", trial, err)
		}
		if s.Makespan > mid {
			t.Fatalf("trial %d: improve increased makespan %d -> %d", trial, mid, s.Makespan)
		}
	}
}

// The polish loops must help, or at least never hurt, the end-to-end
// result versus the raw greedy packing.
func TestPolishNeverWorseThanGreedy(t *testing.T) {
	jobs := digitalJobs(t, 48)
	polished, err := optimize(jobs, 48)
	if err != nil {
		t.Fatal(err)
	}
	// The raw greedy result: Optimize's three cold orderings with the
	// improvement loop disabled and no repack.
	cfg := config{improvePasses: 0, paretoOnly: true}
	ws := new(workspace)
	if err := ws.load(jobs, 48, cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := packOrderings(ws)
	if err != nil {
		t.Fatal(err)
	}
	if polished.Makespan > raw.Makespan {
		t.Errorf("polished makespan %d worse than greedy %d", polished.Makespan, raw.Makespan)
	}
}

// Optimize runs its three packing orderings concurrently; the outcome
// must nevertheless be bit-stable run to run, including placements.
func TestOptimizeConcurrentOrderingsDeterministic(t *testing.T) {
	jobs := digitalJobs(t, 40)
	ref, err := optimize(jobs, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s, err := optimize(jobs, 40)
		if err != nil {
			t.Fatal(err)
		}
		if s.CSV() != ref.CSV() {
			t.Fatalf("run %d: schedule differs from first run", i)
		}
	}
}

// A cancelled context aborts Optimize with the context's error — from
// the cold three-ordering race and from the warm-adoption path alike —
// while a live context changes nothing.
func TestOptimizeContextCancellation(t *testing.T) {
	jobs := digitalJobs(t, 48)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := optimize(jobs, 48, WithContext(cancelled)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold pack under cancelled ctx: err = %v, want context.Canceled", err)
	}
	seed, err := optimize(jobs, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := optimize(jobs, 48, WithWarmStart(seed), WithContext(cancelled)); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm pack under cancelled ctx: err = %v, want context.Canceled", err)
	}

	cold, err := optimize(jobs, 48)
	if err != nil {
		t.Fatal(err)
	}
	live, err := optimize(jobs, 48, WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if live.CSV() != cold.CSV() {
		t.Error("live context perturbed the packing")
	}
}

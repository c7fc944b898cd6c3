package tam

import (
	"math"
	"testing"

	"mixsoc/internal/wrapper"
)

// A warm start from a narrower bin must produce a valid schedule that
// is never worse than the seed: adoption is verbatim and the polish
// loops are monotone.
func TestWarmStartNeverWorseThanSeed(t *testing.T) {
	jobs := digitalJobs(t, 64)
	for _, step := range [][2]int{{24, 32}, {32, 40}, {40, 64}} {
		seed, err := Optimize(jobs, step[0])
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Optimize(jobs, step[1], WithWarmStart(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := warm.Validate(); err != nil {
			t.Fatalf("%d->%d: warm schedule invalid: %v", step[0], step[1], err)
		}
		if warm.Width != step[1] {
			t.Fatalf("%d->%d: width = %d", step[0], step[1], warm.Width)
		}
		if warm.Makespan > seed.Makespan {
			t.Errorf("%d->%d: warm makespan %d worse than seed %d", step[0], step[1], warm.Makespan, seed.Makespan)
		}
		// And close to cold quality (the polish loops are shared).
		cold, err := Optimize(jobs, step[1])
		if err != nil {
			t.Fatal(err)
		}
		if ratio := float64(warm.Makespan) / float64(cold.Makespan); ratio > 1.15 {
			t.Errorf("%d->%d: warm makespan %d is %.2fx the cold %d", step[0], step[1], warm.Makespan, ratio, cold.Makespan)
		}
	}
}

// Warm-started runs are deterministic: same seed, same result.
func TestWarmStartDeterministic(t *testing.T) {
	jobs := digitalJobs(t, 48)
	seed, err := Optimize(jobs, 32)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Optimize(jobs, 48, WithWarmStart(seed))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s, err := Optimize(jobs, 48, WithWarmStart(seed))
		if err != nil {
			t.Fatal(err)
		}
		if s.CSV() != ref.CSV() {
			t.Fatalf("run %d: warm schedule differs from first run", i)
		}
	}
}

// A seed that does not describe the job set is ignored, and the result
// is exactly the cold packing.
func TestWarmStartIgnoresForeignSeed(t *testing.T) {
	jobs := digitalJobs(t, 48)
	cold, err := Optimize(jobs, 48)
	if err != nil {
		t.Fatal(err)
	}
	foreign := &Schedule{Width: 8, Makespan: 10, Placements: []Placement{
		{Job: fixedJob("not-a-p93791-core", 2, 10), Width: 2, Start: 0, End: 10, WireLo: 0},
	}}
	warm, err := Optimize(jobs, 48, WithWarmStart(foreign))
	if err != nil {
		t.Fatal(err)
	}
	if warm.CSV() != cold.CSV() {
		t.Error("foreign seed was not ignored")
	}
	// A nil seed is likewise a no-op.
	warm, err = Optimize(jobs, 48, WithWarmStart(nil))
	if err != nil {
		t.Fatal(err)
	}
	if warm.CSV() != cold.CSV() {
		t.Error("nil seed was not ignored")
	}
}

// A seed from a WIDER bin cannot be adopted verbatim (its placements
// may not fit); it is adapted by re-placing the jobs in the seed's
// order, which must yield a valid, deterministic schedule at the
// narrower width that stays close to cold quality.
func TestWarmStartAdaptsWiderSeed(t *testing.T) {
	jobs := digitalJobs(t, 64)
	seed, err := Optimize(jobs, 64)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Optimize(jobs, 32)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Optimize(jobs, 32, WithWarmStart(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Validate(); err != nil {
		t.Fatalf("warm schedule invalid: %v", err)
	}
	if warm.Width != 32 {
		t.Fatalf("warm width = %d, want 32", warm.Width)
	}
	if ratio := float64(warm.Makespan) / float64(cold.Makespan); ratio > 1.15 {
		t.Errorf("shrunk warm makespan %d is %.2fx the cold %d", warm.Makespan, ratio, cold.Makespan)
	}
	again, err := Optimize(jobs, 32, WithWarmStart(seed))
	if err != nil {
		t.Fatal(err)
	}
	if again.CSV() != warm.CSV() {
		t.Error("wider-seed adaptation not deterministic")
	}
	// A foreign wider seed is still ignored: exactly the cold packing.
	foreign := &Schedule{Width: 96, Makespan: 10, Placements: []Placement{
		{Job: fixedJob("not-a-p93791-core", 2, 10), Width: 2, Start: 0, End: 10, WireLo: 0},
	}}
	fromForeign, err := Optimize(jobs, 32, WithWarmStart(foreign))
	if err != nil {
		t.Fatal(err)
	}
	if fromForeign.CSV() != cold.CSV() {
		t.Error("foreign wider seed was not ignored")
	}
}

// With several seeds the packer adopts the one with the best pre-polish
// makespan; seeding with (worse, better) and (better, worse) pairs must
// both land on the better seed's result.
func TestWarmStartBestOfSeveralSeeds(t *testing.T) {
	jobs := digitalJobs(t, 64)
	near, err := Optimize(jobs, 56) // narrower, close: adopts verbatim
	if err != nil {
		t.Fatal(err)
	}
	far, err := Optimize(jobs, 8) // narrower, far: much worse makespan
	if err != nil {
		t.Fatal(err)
	}
	if far.Makespan <= near.Makespan {
		t.Fatalf("test premise broken: 8-wire makespan %d not worse than 56-wire %d", far.Makespan, near.Makespan)
	}
	ref, err := Optimize(jobs, 64, WithWarmStart(near))
	if err != nil {
		t.Fatal(err)
	}
	for _, seeds := range [][]*Schedule{{near, far}, {far, near}} {
		got, err := Optimize(jobs, 64, WithWarmStart(seeds[0]), WithWarmStart(seeds[1]))
		if err != nil {
			t.Fatal(err)
		}
		if got.CSV() != ref.CSV() {
			t.Errorf("seed pair did not adopt the better (56-wire) seed")
		}
	}
	// A nil seed among usable ones is skipped, not adopted.
	got, err := Optimize(jobs, 64, WithWarmStart(nil), WithWarmStart(near))
	if err != nil {
		t.Fatal(err)
	}
	if got.CSV() != ref.CSV() {
		t.Error("nil seed perturbed multi-seed adoption")
	}
}

// adoptSeed must re-derive durations from the current staircases and
// reject seeds whose widths fall below a job's narrowest option.
func TestAdoptSeedRederivesDurations(t *testing.T) {
	a := &Job{ID: "a", Options: []wrapper.Point{{Width: 2, Time: 10}, {Width: 4, Time: 6}}}
	seed := &Schedule{Width: 4, Makespan: 10, Placements: []Placement{
		{Job: &Job{ID: "a"}, Width: 2, Start: 0, End: 99, WireLo: 1}, // stale End
	}}
	s := adoptSeed([]*Job{a}, 6, seed)
	if s == nil {
		t.Fatal("seed not adopted")
	}
	if s.Placements[0].End != 10 || s.Placements[0].Job != a {
		t.Errorf("adopted placement = %+v, want End 10 bound to job a", s.Placements[0])
	}
	// Width below the narrowest option: reject.
	bad := &Schedule{Width: 4, Makespan: 10, Placements: []Placement{
		{Job: &Job{ID: "a"}, Width: 1, Start: 0, End: 10, WireLo: 0},
	}}
	if adoptSeed([]*Job{a}, 6, bad) != nil {
		t.Error("sub-staircase width accepted")
	}
	// Missing job: reject.
	b := &Job{ID: "b", Options: []wrapper.Point{{Width: 1, Time: 5}}}
	if adoptSeed([]*Job{a, b}, 6, seed) != nil {
		t.Error("incomplete seed accepted")
	}
}

// BenchmarkEarliestFit measures one bestPlacement query — the packer's
// innermost operation — against a realistic packed schedule, comparing
// the bitset fitter with the counter-scan test reference (which also
// skips bestPlacement's incumbent pruning and allocates its per-wire
// counters on every query).
func BenchmarkEarliestFit(b *testing.B) {
	jobs := digitalJobs(b, 64)
	s, err := Optimize(jobs, 64)
	if err != nil {
		b.Fatal(err)
	}
	probe := jobs[len(jobs)-1]
	placements := s.Placements[:len(s.Placements)-1]
	cfg := config{improvePasses: len(jobs), paretoOnly: true}
	f := newFitter(newOptionTable(jobs, 64, cfg), 64, cfg)
	f.prepare(placements)
	run := func(b *testing.B, best func() (Placement, bool)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := best(); !ok {
				b.Fatal("no placement found")
			}
		}
	}
	b.Run("bitmask", func(b *testing.B) {
		run(b, func() (Placement, bool) { return f.bestPlacement(probe, math.MaxInt64) })
	})
	b.Run("counter-scan", func(b *testing.B) {
		run(b, func() (Placement, bool) { return f.bestPlacementScan(probe, placements) })
	})
}

// BenchmarkWarmStart compares cold packing with warm-starting from the
// adjacent narrower width.
func BenchmarkWarmStart(b *testing.B) {
	jobs := digitalJobs(b, 48)
	seed, err := Optimize(jobs, 40)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Optimize(jobs, 48); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Optimize(jobs, 48, WithWarmStart(seed)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

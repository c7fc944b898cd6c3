package core

import (
	"context"
	"math"
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/itc02"
	"mixsoc/internal/partition"
)

func warmTestDesign() *Design {
	return &Design{Name: "p93791m", Digital: itc02.P93791(), Analog: analog.PaperCores()}
}

func TestScheduleCachePeek(t *testing.T) {
	d := warmTestDesign()
	cache := NewScheduleCache()
	ev := testEvaluator(d, 32, cache)
	p := d.AllShare()
	key := p.Key(nil)

	if got := cache.peek(key); got != nil {
		t.Fatal("Peek returned a schedule before any computation")
	}
	s, err := ev.schedule(context.Background(), p, p.Key(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.peek(key); got != s {
		t.Fatal("Peek did not return the computed schedule")
	}
	// A nil cache peeks nil rather than panicking (warm-start off).
	var nilCache *ScheduleCache
	if nilCache.peek(key) != nil {
		t.Fatal("nil cache not inert")
	}
}

// An evaluator with a warm source must produce schedules for the wider
// width (not echo the seed) and stay deterministic.
func TestEvaluatorWarmChaining(t *testing.T) {
	d := warmTestDesign()
	p := d.AllShare()

	prev := NewScheduleCache()
	ctx := context.Background()
	narrow, err := testEvaluator(d, 32, prev).schedule(ctx, p, p.Key(nil))
	if err != nil {
		t.Fatal(err)
	}

	evWide := testEvaluator(d, 48, nil)
	evWide.pl.Warm = []*ScheduleCache{prev}
	wide, err := evWide.schedule(ctx, p, p.Key(nil))
	if err != nil {
		t.Fatal(err)
	}
	if wide.Width != 48 {
		t.Fatalf("warm schedule width = %d, want 48", wide.Width)
	}
	if err := wide.Validate(); err != nil {
		t.Fatal(err)
	}
	if wide.Makespan > narrow.Makespan {
		t.Errorf("warm 48-wire makespan %d worse than its 32-wire seed %d", wide.Makespan, narrow.Makespan)
	}
}

// The warm-started sweep must be deterministic run to run, solve every
// point, and stay close to the cold sweep's costs — it trades a few
// percent of schedule quality for wall-clock, never correctness.
func TestSweepWarmStartDeterministicAndClose(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	d := warmTestDesign()
	widths := []int{32, 48, 64}
	weights := []Weights{{Time: 0.5, Area: 0.5}}

	cold, err := SweepWith(d, widths, weights, SweepOptions{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SweepWith(d, widths, weights, SweepOptions{Exhaustive: true, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := SweepWith(d, widths, weights, SweepOptions{Exhaustive: true, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != len(cold) || len(warm2) != len(cold) {
		t.Fatalf("point counts: cold %d warm %d warm2 %d", len(cold), len(warm), len(warm2))
	}
	for i := range warm {
		if warm[i].Width != cold[i].Width || warm[i].Weights != cold[i].Weights {
			t.Fatalf("point %d: grid order diverged", i)
		}
		if warm[i].Result.Best.Cost != warm2[i].Result.Best.Cost ||
			warm[i].Result.NEval != warm2[i].Result.NEval ||
			warm[i].Result.Best.Partition.Key(nil) != warm2[i].Result.Best.Partition.Key(nil) {
			t.Fatalf("point %d: warm sweep not deterministic", i)
		}
		rel := math.Abs(warm[i].Result.Best.Cost-cold[i].Result.Best.Cost) / cold[i].Result.Best.Cost
		if rel > 0.15 {
			t.Errorf("point %d (W=%d): warm best cost %.3f deviates %.1f%% from cold %.3f",
				i, warm[i].Width, warm[i].Result.Best.Cost, 100*rel, cold[i].Result.Best.Cost)
		}
		// Exhaustive NEval is the candidate count regardless of warmth.
		if warm[i].Result.NEval != cold[i].Result.NEval {
			t.Errorf("point %d: warm exhaustive NEval %d != cold %d", i, warm[i].Result.NEval, cold[i].Result.NEval)
		}
	}
	// The narrowest width has no narrower neighbour: identical to cold.
	for i := range warm {
		if warm[i].Width == 32 && warm[i].Result.Best.Cost != cold[i].Result.Best.Cost {
			t.Errorf("W=32 point %d differs from cold despite having no warm seed", i)
		}
	}
}

// Warm-start must compose with partitions whose groups pin analog jobs:
// chain every paper candidate across two widths and validate every
// schedule.
func TestWarmChainingAllCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("TAM sweeps are slow")
	}
	d := warmTestDesign()
	combos := d.Candidates(partition.PaperPolicy)
	prev := NewScheduleCache()
	ctx := context.Background()
	evNarrow := testEvaluator(d, 32, prev)
	for _, p := range combos {
		if _, err := evNarrow.schedule(ctx, p, p.Key(nil)); err != nil {
			t.Fatal(err)
		}
	}
	evWide := testEvaluator(d, 40, nil)
	evWide.pl.Warm = []*ScheduleCache{prev}
	for _, p := range combos {
		s, err := evWide.schedule(ctx, p, p.Key(nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Key(nil), err)
		}
	}
}

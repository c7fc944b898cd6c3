package core

import (
	"context"
	"fmt"
	"testing"
)

// TestPlanHotPathAllocs pins the planning kernel's allocations on a
// warmed engine: every schedule, staircase and digital job slice is a
// cache hit and the session's candidate table is built, so what is
// left is preliminary costs, bound probes and the replay. A bound
// probe allocates nothing, so a bounded plan costs one allocation (its
// evaluator's bound floor) more than an unbounded one. The ceilings sit
// about 5% above the counts measured when the pin was set (p93791m,
// W=32, one worker: 78, 79, 82 and 80).
func TestPlanHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	e := NewEngine(EngineOptions{Workers: 1})
	d := paperDesign()
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		opts    PlanOptions
		ceiling float64
	}{
		{"heuristic", PlanOptions{}, 82},
		{"heuristic+bounded", PlanOptions{Bounded: true}, 83},
		{"exhaustive", PlanOptions{Exhaustive: true}, 86},
		{"exhaustive+bounded", PlanOptions{Exhaustive: true, Bounded: true}, 84},
	} {
		plan := func() {
			if _, err := e.PlanWith(ctx, d, 32, EqualWeights, tc.opts); err != nil {
				t.Fatal(err)
			}
		}
		plan() // warm the session's caches
		got := testing.AllocsPerRun(20, plan)
		t.Logf("%s: %v allocs/plan", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %v allocs/plan, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}

// TestPackJobsAllocs pins what a pack allocates to build its jobs once
// its evaluator holds the digital jobs and the analog templates: the
// job slice and one block of analog job structs, nothing per test or
// per wrapper group. It also pins the job IDs and group names, which
// Gantt and CSV output print.
func TestPackJobsAllocs(t *testing.T) {
	d := paperDesign()
	e := testEvaluator(d, 32, nil)
	tests := 0
	for _, c := range d.Analog {
		tests += len(c.Tests)
	}
	cands := d.Candidates(nil)
	for _, p := range cands {
		jobs, err := e.jobs(p)
		if err != nil {
			t.Fatal(err)
		}
		analog := jobs[len(jobs)-tests:]
		k := 0
		for gi, g := range p {
			for _, ci := range g {
				for ti := range d.Analog[ci].Tests {
					j := analog[k]
					k++
					if id := fmt.Sprintf("%s/%s", d.Analog[ci].Name, d.Analog[ci].Tests[ti].Name); j.ID != id {
						t.Fatalf("%s: job ID %q, want %q", p.Key(nil), j.ID, id)
					}
					if group := fmt.Sprintf("wrapper%d", gi); j.Group != group {
						t.Fatalf("%s: job %s in group %q, want %q", p.Key(nil), j.ID, j.Group, group)
					}
				}
			}
		}
	}
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	i := 0
	got := testing.AllocsPerRun(100, func() {
		if _, err := e.jobs(cands[i%len(cands)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%v allocs/job build", got)
	if got > 2 {
		t.Errorf("%v allocs to build a pack's jobs, want 2 (the job slice and the analog job structs)", got)
	}
}

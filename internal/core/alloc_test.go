package core

import (
	"context"
	"testing"
)

// TestPlanHotPathAllocs pins the planning kernel's allocations on a
// warmed engine: every schedule, staircase and digital job slice is a
// cache hit and the candidate set is memoized, so what is left is
// candidate filtering, costing, bound probes and the replay. The
// ceilings sit about 5% above the counts measured when the pin was set
// (p93791m, W=32, one worker).
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
		{"heuristic", PlanOptions{}, 323},
		{"heuristic+bounded", PlanOptions{Bounded: true}, 721},
		{"exhaustive", PlanOptions{Exhaustive: true}, 573},
		{"exhaustive+bounded", PlanOptions{Exhaustive: true, Bounded: true}, 3075},
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

package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/tam"
)

func TestSweep(t *testing.T) {
	d := paperDesign()
	pts, err := SweepWith(d, []int{32, 48}, []Weights{EqualWeights}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Result.Best.Cost <= 0 {
			t.Errorf("W=%d: cost %v", p.Width, p.Result.Best.Cost)
		}
	}
	best, err := BestOver(pts)
	if err != nil {
		t.Fatal(err)
	}
	if best.Width != 32 && best.Width != 48 {
		t.Errorf("best width %d not in sweep", best.Width)
	}

	if _, err := SweepWith(d, nil, []Weights{EqualWeights}, SweepOptions{}); err == nil {
		t.Error("empty widths accepted")
	}
	if _, err := BestOver(nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestSweepConfigureHook(t *testing.T) {
	d := paperDesign()
	called := 0
	_, err := SweepWith(d, []int{32}, []Weights{EqualWeights}, SweepOptions{Configure: func(pl *Planner) {
		pl.CostModel = analog.PaperCostModel()
		called++
	}})
	if err != nil {
		t.Fatal(err)
	}
	if called != 1 {
		t.Errorf("configure called %d times", called)
	}

	// Configure runs after the cache wiring, so a packer it installs
	// receives every pack and the wired engine packer none.
	e := NewEngine(EngineOptions{})
	var installed backendCounters
	pts, err := e.Sweep(context.Background(), d, []int{24, 32}, []Weights{EqualWeights}, SweepOptions{
		Workers:   1,
		Configure: func(pl *Planner) { pl.Packer = countingPacker{Packer: tam.OccupancyPacker{}, c: &installed} },
	})
	if err != nil {
		t.Fatal(err)
	}
	neval := 0
	for _, p := range pts {
		neval += p.Result.NEval
	}
	if got := installed.ok.Load(); got == 0 || got != uint64(neval) {
		t.Errorf("installed packer saw %d packs, want NEval total %d", got, neval)
	}
	if m := e.Metrics(); len(m.BackendPacks) != 0 {
		t.Errorf("wired engine packer saw packs: %+v", m.BackendPacks)
	}
}

// TestSweepSelectMatchesFullSweep is the sharding contract: a sweep
// restricted to a subset of the grid must return exactly the points an
// unrestricted sweep returns for those cells, bit for bit, even though
// the restricted sweep never packs — or allocates caches for — the
// unselected widths.
func TestSweepSelectMatchesFullSweep(t *testing.T) {
	d := paperDesign()
	widths := []int{24, 32, 48}
	weights := []Weights{{Time: 0.25, Area: 0.75}, EqualWeights}
	full, err := SweepWith(d, widths, weights, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(widths)*len(weights) {
		t.Fatalf("full sweep has %d points", len(full))
	}

	sel := func(w int, wt Weights) bool { return w != 32 && wt.Time != 0.25 }
	part, err := SweepWith(d, widths, weights, SweepOptions{Select: sel})
	if err != nil {
		t.Fatal(err)
	}
	var want []SweepPoint
	for _, p := range full {
		if sel(p.Width, p.Weights) {
			want = append(want, p)
		}
	}
	if len(part) != len(want) {
		t.Fatalf("selected sweep has %d points, want %d", len(part), len(want))
	}
	for i, p := range part {
		w := want[i]
		if p.Width != w.Width || p.Weights != w.Weights {
			t.Fatalf("point %d is (W=%d, wT=%v), want (W=%d, wT=%v)",
				i, p.Width, p.Weights.Time, w.Width, w.Weights.Time)
		}
		if math.Float64bits(p.Result.Best.Cost) != math.Float64bits(w.Result.Best.Cost) ||
			p.Result.Best.TestTime != w.Result.Best.TestTime ||
			p.Result.NEval != w.Result.NEval {
			t.Errorf("point (W=%d, wT=%v): selected sweep diverged from full sweep (cost %v vs %v, NEval %d vs %d)",
				p.Width, p.Weights.Time, p.Result.Best.Cost, w.Result.Best.Cost, p.Result.NEval, w.Result.NEval)
		}
	}

	if _, err := SweepWith(d, widths, weights, SweepOptions{
		Select: func(int, Weights) bool { return false },
	}); err == nil {
		t.Error("empty selection accepted")
	}
}

// TestSweepSelectWarmChain exercises Select together with WarmStart: the
// chain must seed each width from the nearest narrower *selected* width
// and still solve every selected point.
func TestSweepSelectWarmChain(t *testing.T) {
	d := paperDesign()
	widths := []int{24, 32, 48}
	pts, err := SweepWith(d, widths, []Weights{EqualWeights}, SweepOptions{
		WarmStart: true,
		Select:    func(w int, _ Weights) bool { return w != 32 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Width != 24 || pts[1].Width != 48 {
		t.Fatalf("selected warm sweep points = %+v", pts)
	}
	for _, p := range pts {
		if p.Result == nil || p.Result.Best.TestTime <= 0 {
			t.Errorf("W=%d: unsolved point", p.Width)
		}
	}
}

// TestSweepWithPlansOnCallersDesign: a one-shot sweep plans on the
// caller's own design, not a copy, so a Configure hook that wires
// caches keyed by pointers into that design (module staircases) hits
// them; and its staircase cache reaches exactly the widest grid width,
// so it never designs wrappers wider than the grid needs.
func TestSweepWithPlansOnCallersDesign(t *testing.T) {
	d := paperDesign()
	widths := []int{24, 40, 32}
	var mu sync.Mutex
	calls := 0
	_, err := SweepWithContext(context.Background(), d, widths, []Weights{EqualWeights}, SweepOptions{
		Configure: func(pl *Planner) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if pl.Design != d {
				t.Errorf("W=%d: planner design %p, want the caller's %p", pl.Width, pl.Design, d)
			}
			if got := pl.Staircases.MaxWidth(); got != 40 {
				t.Errorf("W=%d: staircase cache reaches W=%d, want the widest grid width 40", pl.Width, got)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(widths) {
		t.Errorf("Configure ran %d times, want %d", calls, len(widths))
	}
}

// TestWidthCurveMonotoneish: the test time of one sharing
// configuration, scheduled through an engine at growing TAM widths,
// falls in a staircase (up to scheduling noise).
func TestWidthCurveMonotoneish(t *testing.T) {
	d := paperDesign()
	widths := []int{24, 32, 48, 64}
	e := NewEngine(EngineOptions{MaxWidth: 64})
	curve := make([]int64, len(widths))
	for i, w := range widths {
		s, err := e.Schedule(context.Background(), d, d.NoShare(), w)
		if err != nil {
			t.Fatal(err)
		}
		curve[i] = s.Makespan
	}
	for i := 1; i < len(curve); i++ {
		// Allow small heuristic noise but demand the overall downward
		// staircase of the paper's premise.
		if float64(curve[i]) > 1.05*float64(curve[i-1]) {
			t.Errorf("test time rose sharply from W=%d (%d) to W=%d (%d)",
				widths[i-1], curve[i-1], widths[i], curve[i])
		}
	}
	if curve[len(curve)-1] >= curve[0] {
		t.Errorf("no improvement across the sweep: %v", curve)
	}
}

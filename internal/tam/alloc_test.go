package tam

import (
	"math"
	"testing"
)

// TestPackHotPathAllocs pins the packing hot path's allocations: the
// staircase queries are sub-slices of a job's options, a warmed fitter
// answers earliest-fit and best-placement queries from its own scratch,
// and a whole Optimize call on p93791 stays within a small fixed budget
// (it measured 64 allocations when pinned).
func TestPackHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const width = 32
	jobs := digitalJobs(t, width)
	j := jobs[0]
	queries := map[string]func(){
		"usable":    func() { _ = j.usable(width) },
		"widest":    func() { _ = j.widest(width) },
		"minTime":   func() { _ = j.minTime(width) },
		"volume":    func() { _ = j.volume(width) },
		"minVolume": func() { _ = j.minVolume(width) },
	}
	for name, fn := range queries {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %v allocs/run, want 0", name, got)
		}
	}

	s, err := Optimize(jobs, width)
	if err != nil {
		t.Fatal(err)
	}
	probe := s.Placements[len(s.Placements)-1].Job
	placements := s.Placements[:len(s.Placements)-1]
	cfg := config{improvePasses: len(jobs), paretoOnly: true}
	f := newFitter(newOptionTable(jobs, width, cfg), width, cfg)
	opt := f.opts[probe][0]
	if got := testing.AllocsPerRun(100, func() {
		f.prepare(placements)
		if _, _, ok := f.earliestFit(probe, opt.Width, opt.Time, placements, math.MaxInt64); !ok {
			t.Fatal("earliestFit found no placement")
		}
	}); got != 0 {
		t.Errorf("earliestFit: %v allocs/run, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, ok := f.bestPlacement(probe, placements); !ok {
			t.Fatal("bestPlacement found no placement")
		}
	}); got != 0 {
		t.Errorf("bestPlacement: %v allocs/run, want 0", got)
	}

	const budget = 120
	if got := testing.AllocsPerRun(20, func() {
		if _, err := Optimize(jobs, width); err != nil {
			t.Fatal(err)
		}
	}); got > budget {
		t.Errorf("Optimize(p93791, W=%d): %v allocs/run, want <= %d", width, got, budget)
	}
}

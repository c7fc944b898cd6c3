package proptest

// Cross-backend differential suite: every packing backend is run over
// the same job lists — 200 fixed-seed generated designs plus all five
// mixed-signal registry benchmarks — and held to the shared schedule
// contract. The backends search the packing space along deliberately
// different trajectories (occupancy sweeps widths; rectangle orders by
// normalized diagonal), so structural agreement between them is a real
// oracle: a bug in either one shows up as a Validate failure, a missing
// or duplicated placement, or a makespan below the admissible bound.

import (
	"fmt"
	"testing"

	"mixsoc/internal/core"
	"mixsoc/internal/registry"
	"mixsoc/internal/socgen"
	"mixsoc/internal/tam"
)

// benchmarkNames are the plannable registry designs the differential
// suite packs, smallest first.
var benchmarkNames = []string{"d281m", "d695m", "g1023m", "p93791m", "t512505m"}

func TestBackendDifferential(t *testing.T) {
	for seed := int64(1); seed <= numSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			d, err := socgen.Generate(socgen.Options{Seed: seed, Class: socgen.Small})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			checkBackends(t, d)
		})
	}
}

func TestBackendDifferentialBenchmarks(t *testing.T) {
	for _, name := range benchmarkNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, err := registry.Lookup(name)
			if err != nil {
				t.Fatalf("Lookup: %v", err)
			}
			checkBackends(t, d)
		})
	}
}

// checkBackends packs the design's all-share configuration through
// every registered backend, asserts each schedule's invariants, then
// asserts the tournament never does worse than the best individual
// backend (it picks the smallest validated makespan by construction).
func checkBackends(t *testing.T, d *core.Design) {
	t.Helper()
	jobs, err := core.BuildJobs(d, d.AllShare(), propWidth)
	if err != nil {
		t.Fatalf("BuildJobs: %v", err)
	}
	var best int64
	for i, backend := range tam.Backends() {
		pk, err := tam.Lookup(backend)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", backend, err)
		}
		s, err := pk.Pack(jobs, propWidth)
		if err != nil {
			t.Fatalf("%s: Pack: %v", backend, err)
		}
		checkScheduleContract(t, backend, s, jobs)
		if i == 0 || s.Makespan < best {
			best = s.Makespan
		}
	}
	tp, err := core.PackerFor(core.BackendTournament)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tp.Pack(jobs, propWidth)
	if err != nil {
		t.Fatalf("tournament: Pack: %v", err)
	}
	checkScheduleContract(t, "tournament", ts, jobs)
	if ts.Makespan > best {
		t.Fatalf("tournament makespan %d worse than best individual backend %d", ts.Makespan, best)
	}
}

// checkScheduleContract is the contract every backend's output must
// satisfy: the schedule validates (no wire overflow, no overlap within
// a wire or a serialization group), places every job exactly once, its
// makespan is the latest placement end, and the makespan is at least
// the admissible lower bound that holds for ANY valid schedule.
func checkScheduleContract(t *testing.T, backend string, s *tam.Schedule, jobs []*tam.Job) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("%s: schedule invalid: %v", backend, err)
	}
	if len(s.Placements) != len(jobs) {
		t.Fatalf("%s: placed %d of %d jobs", backend, len(s.Placements), len(jobs))
	}
	placed := map[string]bool{}
	var maxEnd int64
	for i := range s.Placements {
		p := &s.Placements[i]
		if placed[p.Job.ID] {
			t.Fatalf("%s: job %s placed twice", backend, p.Job.ID)
		}
		placed[p.Job.ID] = true
		if p.End > maxEnd {
			maxEnd = p.End
		}
	}
	for _, j := range jobs {
		if !placed[j.ID] {
			t.Fatalf("%s: job %s never placed", backend, j.ID)
		}
	}
	if s.Makespan != maxEnd {
		t.Fatalf("%s: makespan %d != latest placement end %d", backend, s.Makespan, maxEnd)
	}
	if lb := tam.AdmissibleFloor(jobs, propWidth).Makespan(propWidth); s.Makespan < lb {
		t.Fatalf("%s: makespan %d below admissible lower bound %d", backend, s.Makespan, lb)
	}
}

package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"mixsoc/internal/core"
	"mixsoc/internal/registry"
	"mixsoc/internal/socgen"
	"mixsoc/internal/tam"
)

// TestLowerBoundMatchesBuildJobs pins Bounded mode's O(1) probe against
// the exported BuildJobs bound: for every feasible candidate of every
// registry design with analog cores (the others have no candidates)
// and of 20 seeded Medium designs, at every width from 16 to 64 in
// steps of 8, the probe must equal LowerBound bit for bit.
func TestLowerBoundMatchesBuildJobs(t *testing.T) {
	designs := map[string]*core.Design{}
	for _, e := range registry.Entries() {
		if e.AnalogCores == 0 {
			continue
		}
		d, err := registry.Lookup(e.Name)
		if err != nil {
			t.Fatal(err)
		}
		designs[e.Name] = d
	}
	for seed := int64(1); seed <= 20; seed++ {
		d, err := socgen.Generate(socgen.Options{Seed: seed, Class: socgen.Medium})
		if err != nil {
			t.Fatal(err)
		}
		designs[fmt.Sprintf("medium-%02d", seed)] = d
	}
	checked := 0
	eng := core.NewEngine(core.EngineOptions{})
	for name, d := range designs {
		for width := 16; width <= 64; width += 8 {
			pl := core.NewPlanner(d, width, core.EqualWeights)
			s, err := eng.Schedule(context.Background(), d, d.AllShare(), width, "")
			if err != nil {
				t.Fatalf("%s W=%d: %v", name, width, err)
			}
			allShare := s.Makespan
			ps, probes, err := core.BoundProbes(pl, allShare)
			if err != nil {
				t.Fatalf("%s W=%d: %v", name, width, err)
			}
			for i, p := range ps {
				ref, err := pl.LowerBound(p, allShare)
				if err != nil {
					t.Fatal(err)
				}
				checked++
				if math.Float64bits(probes[i]) != math.Float64bits(ref) {
					t.Errorf("%s W=%d %s: probe %v != BuildJobs bound %v", name, width, p.Key(nil), probes[i], ref)
				}
				jobs, err := core.BuildJobs(d, p, width)
				if err != nil {
					t.Fatal(err)
				}
				if lb := tam.AdmissibleFloor(jobs, width).Makespan(width); lb <= 0 {
					t.Errorf("%s W=%d %s: degenerate makespan bound %d", name, width, p.Key(nil), lb)
				}
			}
		}
	}
	t.Logf("%d designs, %d candidate bounds checked", len(designs), checked)
}

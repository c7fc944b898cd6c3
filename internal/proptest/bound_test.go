package proptest

import (
	"fmt"
	"math"
	"testing"

	"mixsoc/internal/core"
	"mixsoc/internal/registry"
	"mixsoc/internal/socgen"
	"mixsoc/internal/tam"
)

// TestBoundNeverExceedsPackedCost is the admissibility property behind
// Bounded mode, over the seeded generator: for every candidate
// configuration the exhaustive solver actually packed, the staircase
// cost lower bound must not exceed the packed cost. An inadmissible
// bound would let branch-and-bound prune the true optimum.
func TestBoundNeverExceedsPackedCost(t *testing.T) {
	for seed := int64(1); seed <= numSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			d, err := socgen.Generate(socgen.Options{Seed: seed, Class: socgen.Small})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			pl := core.NewPlanner(d, propWidth, propWeights)
			res, err := pl.Exhaustive()
			if err != nil {
				t.Fatalf("Exhaustive: %v", err)
			}
			for _, ev := range res.Evaluated {
				// Bounded mode's bound: the admissible makespan floor
				// of the candidate's jobs as a CT, plus the exact area
				// term.
				jobs, err := core.BuildJobs(d, ev.Partition, propWidth)
				if err != nil {
					t.Fatalf("BuildJobs: %v", err)
				}
				ctLB := 100 * float64(tam.AdmissibleFloor(jobs, propWidth).Makespan(propWidth)) / float64(res.AllShare)
				lb := propWeights.Time*ctLB + propWeights.Area*ev.CA
				if lb > ev.Cost {
					t.Fatalf("bound %v exceeds packed cost %v for %s",
						lb, ev.Cost, ev.Partition.FormatShared(d.AnalogNames()))
				}
			}
			checkBoundedExact(t, d, propWidth, propWeights)
		})
	}
}

// checkBoundedExact asserts Bounded mode is an exact transformation on
// d: same best cost bits, same selected configuration, and the pruned
// candidates account exactly for the saved TAM runs, for both solvers.
func checkBoundedExact(t *testing.T, d *core.Design, width int, w core.Weights) {
	t.Helper()
	names := d.AnalogNames()
	type solver struct {
		name string
		run  func(pl *core.Planner) (*core.Result, error)
	}
	for _, s := range []solver{
		{"exhaustive", func(pl *core.Planner) (*core.Result, error) { return pl.Exhaustive() }},
		{"cost-optimizer", func(pl *core.Planner) (*core.Result, error) { return pl.CostOptimizer() }},
	} {
		plain, err := s.run(core.NewPlanner(d, width, w))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		b := core.NewPlanner(d, width, w)
		b.Bounded = true
		bounded, err := s.run(b)
		if err != nil {
			t.Fatalf("bounded %s: %v", s.name, err)
		}
		if math.Float64bits(bounded.Best.Cost) != math.Float64bits(plain.Best.Cost) {
			t.Errorf("%s: bounded cost %v != unbounded %v", s.name, bounded.Best.Cost, plain.Best.Cost)
		}
		if got, want := bounded.Best.Label(names), plain.Best.Label(names); got != want {
			t.Errorf("%s: bounded selected %s, unbounded %s", s.name, got, want)
		}
		if bounded.NEval+bounded.Pruned != plain.NEval {
			t.Errorf("%s: NEval %d + pruned %d != unbounded NEval %d",
				s.name, bounded.NEval, bounded.Pruned, plain.NEval)
		}
		if plain.Pruned != 0 {
			t.Errorf("%s: unbounded run reports %d pruned candidates", s.name, plain.Pruned)
		}
	}
}

// TestBoundedMatchesUnboundedOnRegistry is the replay pin on the real
// benchmarks: on all five plannable registry designs, bounded-mode
// results equal unbounded results bit for bit (cost, selection), the
// pruned candidates exactly account for the NEval gap, and the bound
// actually prunes somewhere — a vacuous bound would pass everything
// else.
func TestBoundedMatchesUnboundedOnRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive registry sweeps are slow")
	}
	totalPruned := 0
	for _, name := range []string{"d281m", "d695m", "g1023m", "p93791m", "t512505m"} {
		t.Run(name, func(t *testing.T) {
			d, err := registry.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			checkBoundedExact(t, d, 32, core.Weights{Time: 0.5, Area: 0.5})
			pl := core.NewPlanner(d, 32, core.Weights{Time: 0.5, Area: 0.5})
			pl.Bounded = true
			res, err := pl.Exhaustive()
			if err != nil {
				t.Fatal(err)
			}
			totalPruned += res.Pruned
		})
	}
	if totalPruned == 0 {
		t.Error("bound pruned nothing across the whole registry")
	}
}

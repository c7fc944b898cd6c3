package core

import (
	"math"
	"testing"

	"mixsoc/internal/partition"
	"mixsoc/internal/tam"
)

// LowerBound returns the admissible cost lower bound Bounded mode
// prunes candidate p with, given the all-share normalization time: it
// never exceeds the cost a full TAM evaluation of p reports. It is the
// BuildJobs formulation the planner's O(1) probe, bound, must equal bit
// for bit.
func (pl *Planner) LowerBound(p partition.Partition, allShare int64) (float64, error) {
	cm, _, err := pl.defaults()
	if err != nil {
		return 0, err
	}
	ca, _, err := costParts(pl.Design, cm, p)
	if err != nil {
		return 0, err
	}
	jobs, err := BuildJobs(pl.Design, p, pl.Width)
	if err != nil {
		return 0, err
	}
	return pl.boundCost(tam.AdmissibleFloor(jobs, pl.Width).Makespan(pl.Width), ca, allShare), nil
}

// TestBoundedMatchesUnbounded pins the branch-and-bound contract on the
// paper design: for both solvers, across widths and weights, a Bounded
// run reports the same best cost bits and the same selected
// configuration as an unbounded run, with NEval + Pruned accounting for
// every candidate the unbounded run evaluated.
func TestBoundedMatchesUnbounded(t *testing.T) {
	d := paperDesign()
	for _, exhaustive := range []bool{false, true} {
		for _, width := range []int{16, 32} {
			for _, wt := range []float64{0.25, 0.5, 0.75} {
				solve := func(bounded bool) *Result {
					pl := NewPlanner(d, width, Weights{Time: wt, Area: 1 - wt})
					pl.Workers = 1
					pl.Bounded = bounded
					var (
						res *Result
						err error
					)
					if exhaustive {
						res, err = pl.Exhaustive()
					} else {
						res, err = pl.CostOptimizer()
					}
					if err != nil {
						t.Fatalf("exhaustive=%v W=%d wT=%v bounded=%v: %v", exhaustive, width, wt, bounded, err)
					}
					return res
				}
				plain, bounded := solve(false), solve(true)
				if math.Float64bits(plain.Best.Cost) != math.Float64bits(bounded.Best.Cost) {
					t.Errorf("exhaustive=%v W=%d wT=%v: bounded cost %v != unbounded %v",
						exhaustive, width, wt, bounded.Best.Cost, plain.Best.Cost)
				}
				if got, want := bounded.Best.Partition.Key(nil), plain.Best.Partition.Key(nil); got != want {
					t.Errorf("exhaustive=%v W=%d wT=%v: bounded selection %s != unbounded %s",
						exhaustive, width, wt, got, want)
				}
				if plain.Pruned != 0 {
					t.Errorf("unbounded run reports Pruned=%d", plain.Pruned)
				}
				if bounded.NEval > plain.NEval {
					t.Errorf("exhaustive=%v W=%d wT=%v: bounded NEval %d > unbounded %d",
						exhaustive, width, wt, bounded.NEval, plain.NEval)
				}
				if exhaustive && bounded.NEval+bounded.Pruned != plain.NEval {
					t.Errorf("exhaustive W=%d wT=%v: NEval %d + Pruned %d != candidate evaluations %d",
						width, wt, bounded.NEval, bounded.Pruned, plain.NEval)
				}
			}
		}
	}
}

// TestBoundedWorkerIndependence pins the prefetch/replay contract for
// Bounded mode: the worker count changes wall-clock only, never the
// Result — NEval, Pruned, Evaluated order, best bits.
func TestBoundedWorkerIndependence(t *testing.T) {
	d := paperDesign()
	for _, exhaustive := range []bool{false, true} {
		var base *Result
		for _, workers := range []int{1, 4} {
			pl := NewPlanner(d, 32, EqualWeights)
			pl.Workers = workers
			pl.Bounded = true
			var (
				res *Result
				err error
			)
			if exhaustive {
				res, err = pl.Exhaustive()
			} else {
				res, err = pl.CostOptimizer()
			}
			if err != nil {
				t.Fatalf("exhaustive=%v workers=%d: %v", exhaustive, workers, err)
			}
			if base == nil {
				base = res
				continue
			}
			if res.NEval != base.NEval || res.Pruned != base.Pruned {
				t.Errorf("exhaustive=%v workers=%d: NEval/Pruned %d/%d != single-worker %d/%d",
					exhaustive, workers, res.NEval, res.Pruned, base.NEval, base.Pruned)
			}
			if math.Float64bits(res.Best.Cost) != math.Float64bits(base.Best.Cost) {
				t.Errorf("exhaustive=%v workers=%d: cost %v != single-worker %v",
					exhaustive, workers, res.Best.Cost, base.Best.Cost)
			}
			if len(res.Evaluated) != len(base.Evaluated) {
				t.Errorf("exhaustive=%v workers=%d: %d evaluations != single-worker %d",
					exhaustive, workers, len(res.Evaluated), len(base.Evaluated))
			}
		}
	}
}

// TestLowerBoundAdmissible checks, for every feasible candidate of the
// paper design, that the exported cost lower bound never exceeds the
// fully evaluated cost — the inequality all bounded-mode equalities
// rest on.
func TestLowerBoundAdmissible(t *testing.T) {
	d := paperDesign()
	for _, width := range []int{16, 48} {
		pl := NewPlanner(d, width, EqualWeights)
		pl.Workers = 1
		res, err := pl.Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range res.Evaluated {
			lb, err := pl.LowerBound(ev.Partition, res.AllShare)
			if err != nil {
				t.Fatal(err)
			}
			if lb > ev.Cost {
				t.Errorf("W=%d %s: lower bound %v exceeds cost %v",
					width, ev.Partition.Key(nil), lb, ev.Cost)
			}
		}
	}
}

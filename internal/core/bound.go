package core

// Branch-and-bound support for the planner's opt-in Bounded mode: an
// admissible per-candidate cost lower bound derived from the wrapper
// staircases, cheap enough to evaluate without running the TAM packer.
//
// The bound on the makespan side is tam.AdmissibleLowerBound over the
// exact job set the packer would receive — the width-capacity floor
// (each job's cheapest usable wire-cycle area, summed and divided by
// the TAM width W), the longest single job, and the serialization
// floor of each analog wrapper group (every test behind one shared
// wrapper runs serially, so the busiest group's total cycles bound the
// makespan from below; this subsumes the analog LTB of equation 2).
// Dividing by the all-share time turns it into a CT lower bound, and
// adding the exact area term wA·CA — which needs no TAM run — makes it
// a cost lower bound:
//
//	wT·(100·LB/T_allshare) + wA·CA  ≤  wT·CT + wA·CA  =  Cost
//
// A candidate whose bound is ≥ the incumbent's cost therefore cannot
// *strictly* beat it, and the planner's incumbent only ever moves on a
// strict improvement — so pruning such candidates changes neither the
// best cost bits nor the selected configuration, only how many
// candidates get packed (NEval and Result.Pruned).
//
// A probe costs O(1) and allocates nothing, because the makespan bound
// splits into parts that each depend on one thing only:
//
//	LB(p) = max(⌈(Vdig(W) + Vana) / W⌉, Ldig(W), serial(p))
//
// Vdig(W) and Ldig(W) are the digital jobs' summed cheapest area and
// longest widest-option time, which depend only on the width; Vana is
// Σ TAMWidth·Cycles over the analog tests, constant for the design;
// serial(p) is the busiest wrapper group's Σ TotalCycles, which depends
// only on the partition. Every analog test sits in its wrapper's group
// and runs at least one cycle, so serial(p) also covers the longest
// single analog test. The evaluator computes the first two parts once,
// on its first probe (Evaluator.boundFloor), and the candidate table
// stores serial(p) (costed.serial). LowerBound keeps the BuildJobs
// formulation as the reference the probe is pinned against.

import (
	"mixsoc/internal/partition"
	"mixsoc/internal/tam"
)

// LowerBound returns the admissible cost lower bound Bounded mode
// prunes candidate p with, given the all-share normalization time: it
// never exceeds the cost a full TAM evaluation of p reports. Exported
// for the property suite that pins that admissibility across seeded
// designs; planning calls use the O(1) probe, bound, which equals it
// bit for bit.
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
	return pl.boundCost(tam.AdmissibleLowerBound(jobs, pl.Width), ca, allShare), nil
}

// bound is LowerBound on the planner's hot path: the evaluator's
// width part of the floor, raised to the candidate's serialization
// floor.
func (pl *Planner) bound(e *Evaluator, c *costed, allShare int64) (float64, error) {
	fl, err := e.boundFloor()
	if err != nil {
		return 0, err
	}
	fl.Longest = max(fl.Longest, c.serial)
	return pl.boundCost(fl.Makespan(pl.Width), c.ca, allShare), nil
}

// boundCost folds a makespan lower bound into a cost lower bound at the
// planner's weights.
func (pl *Planner) boundCost(lb int64, ca float64, allShare int64) float64 {
	ctLB := 100 * float64(lb) / float64(allShare)
	return pl.Weights.Time*ctLB + pl.Weights.Area*ca
}

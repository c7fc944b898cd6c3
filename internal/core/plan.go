package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"mixsoc/internal/analog"
	"mixsoc/internal/partition"
	"mixsoc/internal/tam"
	"mixsoc/internal/wrapper"
)

// Planner solves Problem P_msoc (Section 4): pick the analog
// wrapper-sharing configuration, wrapper designs and TAM schedule that
// minimize C = wT·CT + wA·CA at a given SOC-level TAM width.
type Planner struct {
	Design  *Design
	Width   int     // SOC-level TAM width W
	Weights Weights // wT, wA

	// CostModel prices analog wrapper sharing; zero value is replaced by
	// analog.DefaultCostModel.
	CostModel analog.CostModel
	// Policy filters candidate partitions; nil means the paper's policy.
	Policy partition.Policy
	// Epsilon is the group-elimination threshold ε of Figure 3 (line 16):
	// groups whose representative cost exceeds the best by more than ε
	// are eliminated. The paper's experiments use 0.
	Epsilon float64
	// PrunePrelim, when true (the default via NewPlanner), also skips
	// surviving-group members whose preliminary cost (equation 3) is
	// already no better than the best full cost found. This is the
	// paper's spirit — preliminary costs are available "for free" — and
	// is what keeps NEval near 10 of 26; it is heuristic, exactly as the
	// paper's results table shows (optimal "in all but one case").
	PrunePrelim bool
	// Bounded enables branch-and-bound pruning: candidates whose
	// admissible cost lower bound (see Planner.LowerBound) cannot
	// strictly beat the incumbent are skipped without a TAM run. The
	// best cost and selected configuration are bit-identical to an
	// unbounded solve — the bound never exceeds the true cost, and the
	// incumbent only moves on a strict improvement — but NEval and
	// Evaluated shrink to the survivors, with Result.Pruned counting
	// the skips. Off by default, so the paper tables and golden NEval
	// are untouched.
	Bounded bool
	// Workers bounds the TAM-evaluation concurrency; 0 means one worker
	// per available CPU (DefaultWorkers). With more than one worker the
	// planner prefetches schedules in parallel and then replays the
	// paper's algorithm sequentially over the warmed cache, so the
	// Result — including NEval — is identical to a single-worker run.
	Workers int
	// Cache, when non-nil, backs the planner's evaluator with a shared
	// schedule store (see ScheduleCache). It must belong to the same
	// design and width.
	Cache *ScheduleCache
	// Staircases, when non-nil, serves digital wrapper staircases from a
	// design-level cache shared across widths (see
	// wrapper.StaircaseCache).
	Staircases *wrapper.StaircaseCache
	// Digital and DigitalKey, when both set, serve the design's digital
	// TAM jobs from a cross-design cache (see Evaluator.Digital).
	Digital    *DigitalJobsCache
	DigitalKey string
	// Warm lists the completed schedule caches of adjacent widths used
	// to seed TAM runs, nearest width first (see Evaluator.Warm).
	// Warm-started packing is not guaranteed to reproduce cold makespans
	// bit-for-bit; leave it empty where exact reproduction matters.
	Warm []*ScheduleCache
	// Packer is the packing backend every TAM run goes through (see
	// Evaluator.Packer and PackerFor); NewPlanner sets the default
	// occupancy backend, and nil means it too. A shared Cache must be
	// private to the backend.
	Packer tam.Packer
}

// NewPlanner returns a planner with the defaults used by the paper's
// experiments: equal weights, paper candidate policy, ε = 0, preliminary
// pruning on.
func NewPlanner(d *Design, width int, w Weights) *Planner {
	return &Planner{
		Design:      d,
		Width:       width,
		Weights:     w,
		CostModel:   analog.DefaultCostModel(),
		Policy:      partition.PaperPolicy,
		Epsilon:     0,
		PrunePrelim: true,
		Packer:      tam.OccupancyPacker{},
	}
}

// Result is the outcome of a planning run.
type Result struct {
	Method     string // "exhaustive" or "cost-optimizer"
	Best       Evaluation
	NEval      int          // TAM optimizer runs (Table 4's NEval)
	Candidates int          // candidate configurations considered
	Infeasible int          // candidates rejected by the feasibility rule
	AllShare   int64        // T(all-share), the CT normalization base
	Evaluated  []Evaluation // every configuration that got a TAM run
	// Pruned counts the candidates Bounded mode skipped without a TAM
	// run because their cost lower bound could not beat the incumbent.
	// Always zero outside Bounded mode and omitted from JSON then, so
	// default plan responses carry byte-identical bodies.
	Pruned int `json:",omitempty"`
}

// ReductionPercent is Table 4's ΔE: the percentage of TAM evaluations
// saved relative to exhaustively evaluating every candidate.
func (r *Result) ReductionPercent() float64 {
	if r.Candidates == 0 {
		return 0
	}
	return 100 * float64(r.Candidates-r.NEval) / float64(r.Candidates)
}

func (pl *Planner) defaults() (analog.CostModel, partition.Policy, error) {
	if err := pl.Weights.Validate(); err != nil {
		return analog.CostModel{}, nil, err
	}
	if pl.Design == nil || len(pl.Design.Analog) == 0 {
		return analog.CostModel{}, nil, fmt.Errorf("core: planner needs a design with analog cores")
	}
	cm := pl.CostModel
	if cm.Area == nil {
		cm = analog.DefaultCostModel()
	}
	policy := pl.Policy
	if policy == nil {
		policy = partition.PaperPolicy
	}
	return cm, policy, nil
}

func (pl *Planner) workers() int {
	if pl.Workers > 0 {
		return pl.Workers
	}
	return DefaultWorkers()
}

func (pl *Planner) evaluator() *Evaluator {
	e := NewSharedEvaluator(pl.Design, pl.Width, pl.Cache)
	e.Staircases = pl.Staircases
	e.Digital = pl.Digital
	e.DigitalKey = pl.DigitalKey
	e.Warm = pl.Warm
	if pl.Packer != nil {
		e.Packer = pl.Packer
	}
	return e
}

// evalAt completes an Evaluation for p given the all-share time.
func (pl *Planner) evalAt(ctx context.Context, e *Evaluator, cm analog.CostModel, p partition.Partition, allShare int64) (Evaluation, error) {
	ca, ltb, err := costParts(pl.Design, cm, p)
	if err != nil {
		return Evaluation{}, err
	}
	t, err := e.TestTimeContext(ctx, p)
	if err != nil {
		return Evaluation{}, err
	}
	ct := 100 * float64(t) / float64(allShare)
	return Evaluation{
		Partition: p,
		TestTime:  t,
		CT:        ct,
		CA:        ca,
		Cost:      pl.Weights.Time*ct + pl.Weights.Area*ca,
		Prelim:    pl.Weights.Time*ltb + pl.Weights.Area*ca,
	}, nil
}

// feasibleCandidates splits the candidate set by the cost model's
// feasibility rule, preserving order.
func feasibleCandidates(cm analog.CostModel, d *Design, cands []partition.Partition) (feasible []partition.Partition, rejected int, err error) {
	feasible = make([]partition.Partition, 0, len(cands))
	for _, p := range cands {
		skip, err := infeasible(cm, d, p)
		if err != nil {
			return nil, 0, err
		}
		if skip {
			rejected++
			continue
		}
		feasible = append(feasible, p)
	}
	return feasible, rejected, nil
}

// Exhaustive evaluates every candidate configuration with the TAM
// optimizer and returns the cheapest. It is the paper's baseline: always
// optimal with respect to the candidate set, at NEval = |candidates|.
// With more than one worker the TAM runs are fanned across the pool and
// the results merged in candidate order, so the Result is identical to a
// sequential run. With Bounded set, candidates whose cost lower bound
// cannot beat the incumbent are skipped (NEval < |candidates|) without
// changing the best cost or selection.
func (pl *Planner) Exhaustive() (*Result, error) {
	return pl.ExhaustiveContext(context.Background())
}

// ExhaustiveContext is Exhaustive under a context: the candidate loop,
// the parallel prefetch, and the TAM packing hot loops all poll ctx, so
// a caller can abort mid-run and get ctx.Err() back promptly. Aborted
// packings are dropped from the shared caches rather than memoized, so
// a later run on the same caches still produces bit-identical results.
func (pl *Planner) ExhaustiveContext(ctx context.Context) (*Result, error) {
	cm, policy, err := pl.defaults()
	if err != nil {
		return nil, err
	}
	e := pl.evaluator()
	cands := pl.Design.Candidates(policy)
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: policy admits no candidate configurations")
	}
	feasible, rejected, err := feasibleCandidates(cm, pl.Design, cands)
	if err != nil {
		return nil, err
	}

	// Warm the cache in parallel: the all-share normalization point plus
	// every feasible candidate. Errors surface in the replay below. In
	// Bounded mode packing everything would defeat the pruning, so the
	// speculative pass below runs instead, once the normalization time
	// is known.
	if pl.workers() > 1 && !pl.Bounded {
		allShareP := pl.Design.AllShare()
		if err := ForEachCtx(ctx, len(feasible)+1, pl.workers(), func(i int) {
			if i == 0 {
				e.PrefetchContext(ctx, allShareP)
				return
			}
			e.PrefetchContext(ctx, feasible[i-1])
		}); err != nil {
			return nil, err
		}
	}

	allShare, err := e.TestTimeContext(ctx, pl.Design.AllShare())
	if err != nil {
		return nil, err
	}

	// Bounded speculative prefetch: pack candidates in parallel under an
	// atomically tightening incumbent, skipping those whose bound cannot
	// win. The sequential replay below is the sole authority on which
	// candidates are evaluated (and hence on NEval and Pruned) — a
	// speculative packing the replay prunes is cached but never counted.
	if pl.workers() > 1 && pl.Bounded {
		inc := newIncumbent(math.Inf(1))
		if err := ForEachCtx(ctx, len(feasible), pl.workers(), func(i int) {
			p := feasible[i]
			ca, _, err := costParts(pl.Design, cm, p)
			if err != nil {
				return // the replay reports it deterministically
			}
			lb, err := pl.boundAt(e, p, ca, allShare)
			if err != nil || lb >= inc.load() {
				return
			}
			s, err := e.scheduleUncounted(ctx, p)
			if err != nil {
				return
			}
			ct := 100 * float64(s.Makespan) / float64(allShare)
			inc.lower(pl.Weights.Time*ct + pl.Weights.Area*ca)
		}); err != nil {
			return nil, err
		}
	}

	res := &Result{Method: "exhaustive", Candidates: len(cands), Infeasible: rejected, AllShare: allShare}
	best := -1
	for _, p := range feasible {
		if pl.Bounded && best >= 0 {
			ca, _, err := costParts(pl.Design, cm, p)
			if err != nil {
				return nil, err
			}
			lb, err := pl.boundAt(e, p, ca, allShare)
			if err != nil {
				return nil, err
			}
			if lb >= res.Evaluated[best].Cost {
				res.Pruned++
				continue
			}
		}
		ev, err := pl.evalAt(ctx, e, cm, p, allShare)
		if err != nil {
			return nil, err
		}
		res.Evaluated = append(res.Evaluated, ev)
		if best < 0 || ev.Cost < res.Evaluated[best].Cost {
			best = len(res.Evaluated) - 1
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("core: every candidate configuration is infeasible")
	}
	res.Best = res.Evaluated[best]
	res.NEval = e.Runs()
	return res, nil
}

// infeasible reports whether the cost model's feasibility rule rejects
// the configuration; other errors are returned as-is.
func infeasible(cm analog.CostModel, d *Design, p partition.Partition) (bool, error) {
	err := cm.Feasibility(d.Analog, p)
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, analog.ErrInfeasible):
		return true, nil
	}
	return false, err
}

// group is one "degree of sharing" bucket of Figure 3 line 1:
// configurations with the same number of analog wrappers, which for a
// fixed core set means comparable area-overhead structure.
type group struct {
	wrappers int
	members  []candidate
}

type candidate struct {
	p      partition.Partition
	ca     float64
	ltb    float64
	prelim float64
}

// CostOptimizer implements procedure Cost_Optimizer (Figure 3):
//
//  1. Bucket the candidates by degree of sharing (wrapper count).
//  2. Compute preliminary costs Cprelim = wT·LTBnorm + wA·CA for every
//     candidate — no TAM runs needed (equation 3).
//  3. In each bucket, TAM-evaluate only the candidate with the smallest
//     preliminary cost.
//  4. Keep the bucket(s) within ε of the best representative cost;
//     eliminate the rest.
//  5. TAM-evaluate the remaining members of surviving buckets (skipping
//     members whose preliminary cost cannot beat the incumbent when
//     PrunePrelim is set) and return the overall cheapest.
//
// With more than one worker, the representative evaluations run in
// parallel, and the surviving members are prefetched speculatively under
// an atomically shared incumbent bound; the algorithm then replays
// sequentially over the warmed cache, so the Result — NEval, Evaluated
// order, everything — is identical to a single-worker run (speculative
// prefetches that the sequential algorithm would have pruned are never
// accounted).
func (pl *Planner) CostOptimizer() (*Result, error) {
	return pl.CostOptimizerContext(context.Background())
}

// CostOptimizerContext is CostOptimizer under a context; see
// ExhaustiveContext for the cancellation contract.
func (pl *Planner) CostOptimizerContext(ctx context.Context) (*Result, error) {
	cm, policy, err := pl.defaults()
	if err != nil {
		return nil, err
	}
	e := pl.evaluator()
	cands := pl.Design.Candidates(policy)
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: policy admits no candidate configurations")
	}

	res := &Result{Method: "cost-optimizer", Candidates: len(cands)}

	// Lines 1-6: bucket by degree of sharing; preliminary costs. The
	// cost model's feasibility rule drops configurations here — the
	// paper's "should not be considered".
	byWrappers := map[int]*group{}
	for _, p := range cands {
		if skip, err := infeasible(cm, pl.Design, p); err != nil {
			return nil, err
		} else if skip {
			res.Infeasible++
			continue
		}
		ca, ltb, err := costParts(pl.Design, cm, p)
		if err != nil {
			return nil, err
		}
		c := candidate{p: p, ca: ca, ltb: ltb, prelim: pl.Weights.Time*ltb + pl.Weights.Area*ca}
		g := byWrappers[p.Wrappers()]
		if g == nil {
			g = &group{wrappers: p.Wrappers()}
			byWrappers[p.Wrappers()] = g
		}
		g.members = append(g.members, c)
	}
	groups := make([]*group, 0, len(byWrappers))
	for _, g := range byWrappers {
		// Deterministic member order: by preliminary cost, then label.
		sort.Slice(g.members, func(a, b int) bool {
			if g.members[a].prelim != g.members[b].prelim {
				return g.members[a].prelim < g.members[b].prelim
			}
			return g.members[a].p.Key(nil) < g.members[b].p.Key(nil)
		})
		groups = append(groups, g)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].wrappers > groups[b].wrappers })

	if len(groups) == 0 {
		return nil, fmt.Errorf("core: every candidate configuration is infeasible")
	}

	// Warm the cache with the normalization point and every bucket
	// representative in parallel; the replay below accounts them.
	workers := pl.workers()
	if workers > 1 {
		allShareP := pl.Design.AllShare()
		if err := ForEachCtx(ctx, len(groups)+1, workers, func(i int) {
			if i == 0 {
				e.PrefetchContext(ctx, allShareP)
				return
			}
			e.PrefetchContext(ctx, groups[i-1].members[0].p)
		}); err != nil {
			return nil, err
		}
	}

	// The all-share time normalizes CT; the all-share configuration is
	// the single member of the 1-wrapper bucket under the paper's policy,
	// so this evaluation is reused below via the cache.
	allShare, err := e.TestTimeContext(ctx, pl.Design.AllShare())
	if err != nil {
		return nil, err
	}
	res.AllShare = allShare

	// Lines 7-13: evaluate each bucket's most promising member.
	type repEval struct {
		g  *group
		ev Evaluation
	}
	reps := make([]repEval, 0, len(groups))
	bestRep := math.Inf(1)
	for _, g := range groups {
		ev, err := pl.evalAt(ctx, e, cm, g.members[0].p, allShare)
		if err != nil {
			return nil, err
		}
		res.Evaluated = append(res.Evaluated, ev)
		reps = append(reps, repEval{g: g, ev: ev})
		if ev.Cost < bestRep {
			bestRep = ev.Cost
		}
	}

	// Track the incumbent best.
	best := reps[0].ev
	for _, r := range reps[1:] {
		if r.ev.Cost < best.Cost {
			best = r.ev
		}
	}

	// Speculatively prefetch the surviving members in parallel. The
	// shared incumbent bound tightens as speculative costs come back, so
	// members that cannot win are skipped without ever packing them; the
	// sequential replay below is the sole authority on which evaluations
	// the algorithm performs (and hence on NEval).
	if workers > 1 {
		var spec []candidate
		for _, r := range reps {
			if r.ev.Cost > bestRep+pl.Epsilon {
				continue
			}
			spec = append(spec, r.g.members[1:]...)
		}
		bound := newIncumbent(best.Cost)
		if err := ForEachCtx(ctx, len(spec), workers, func(i int) {
			m := spec[i]
			if pl.PrunePrelim && m.prelim >= bound.load() {
				return
			}
			if pl.Bounded {
				lb, err := pl.boundAt(e, m.p, m.ca, allShare)
				if err != nil || lb >= bound.load() {
					return
				}
			}
			s, err := e.scheduleUncounted(ctx, m.p)
			if err != nil {
				return // the replay reports it deterministically
			}
			ct := 100 * float64(s.Makespan) / float64(allShare)
			bound.lower(pl.Weights.Time*ct + pl.Weights.Area*m.ca)
		}); err != nil {
			return nil, err
		}
	}

	// Lines 14-18: eliminate buckets, then fully evaluate survivors.
	for _, r := range reps {
		if r.ev.Cost > bestRep+pl.Epsilon {
			continue // bucket eliminated
		}
		for _, m := range r.g.members[1:] {
			if pl.PrunePrelim && m.prelim >= best.Cost {
				continue
			}
			if pl.Bounded {
				lb, err := pl.boundAt(e, m.p, m.ca, allShare)
				if err != nil {
					return nil, err
				}
				if lb >= best.Cost {
					res.Pruned++
					continue
				}
			}
			ev, err := pl.evalAt(ctx, e, cm, m.p, allShare)
			if err != nil {
				return nil, err
			}
			res.Evaluated = append(res.Evaluated, ev)
			if ev.Cost < best.Cost {
				best = ev
			}
		}
	}

	res.Best = best
	res.NEval = e.Runs()
	return res, nil
}

package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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
	// admissible cost lower bound (see bound.go) cannot
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
	// Cache, when non-nil, backs the planner's TAM runs with a shared
	// schedule store (see ScheduleCache); nil means a private one per
	// solve. It must belong to the same design, width and packer.
	Cache *ScheduleCache
	// Staircases, when non-nil, serves digital wrapper staircases from a
	// design-level cache shared across widths (see
	// wrapper.StaircaseCache).
	Staircases *wrapper.StaircaseCache
	// Digital and DigitalKey, when both set, serve the design's digital
	// TAM jobs from a cross-design cache keyed by (DigitalKey, Width);
	// see DigitalJobsCache. DigitalKey must be the design's DigitalHash.
	Digital    *DigitalJobsCache
	DigitalKey string
	// Warm lists the completed schedule caches of adjacent widths,
	// nearest first, whose packings seed this planner's TAM runs
	// (tam.WithWarmStart, best adoption wins). peek never blocks, so
	// only a driver whose source widths are complete may set it.
	// Warm-started packing is not guaranteed to reproduce cold makespans
	// bit-for-bit; leave it empty where exact reproduction matters.
	Warm []*ScheduleCache
	// Packer is the packing backend every TAM run goes through (see
	// PackerFor); NewPlanner sets the default occupancy backend, and nil
	// means it too. A shared Cache must be private to the backend, as
	// its entries carry no backend tag.
	Packer tam.Packer

	// table, when non-nil, serves the costed candidates from a table
	// shared across planners of the design. Only planners whose cost
	// model and policy are NewPlanner's defaults are wired to one; nil
	// costs the candidates afresh under the planner's own model.
	table *sharedTable
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

// evaluator returns a fresh evaluator over the planner's wiring, which
// must not change while it is in use.
func (pl *Planner) evaluator() *evaluator {
	cache := pl.Cache
	if cache == nil {
		cache = NewScheduleCache()
	}
	return &evaluator{pl: pl, cache: cache, counted: map[string]bool{}}
}

// costed is one feasible configuration with everything about it that
// needs no TAM run: its schedule-cache key, its wrapper count, its area
// term CA (equation 1), its normalized analog test-time lower bound
// LTBnorm (equation 2), and its serialization floor — the busiest
// wrapper group's total cycles, the part of Bounded mode's bound that
// depends on the partition.
type costed struct {
	p        partition.Partition
	key      string // p.Key(nil)
	wrappers int
	ca, ltb  float64
	serial   int64
}

// candidateTable is a design's candidate set costed under one cost
// model and policy. None of it depends on the TAM width or the cost
// weights, so an Engine session (or a one-shot sweep) builds it once
// and every planner over the design reads it. It is read-only once
// built.
type candidateTable struct {
	candidates int      // configurations the policy admits
	infeasible int      // of those, rejected by the feasibility rule
	feasible   []costed // in candidate order
	allShare   costed   // the CT normalization point; only p and key set
}

// costCandidates enumerates the design's candidates and costs every
// feasible one; the cost model's feasibility rule drops the rest (the
// paper's "should not be considered"). It is the planner's only costing
// loop.
func costCandidates(d *Design, cm analog.CostModel, policy partition.Policy) (*candidateTable, error) {
	cands := d.Candidates(policy)
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: policy admits no candidate configurations")
	}
	t := &candidateTable{candidates: len(cands), feasible: make([]costed, 0, len(cands))}
	for _, p := range cands {
		if skip, err := infeasible(cm, d, p); err != nil {
			return nil, err
		} else if skip {
			t.infeasible++
			continue
		}
		ca, ltb, err := costParts(d, cm, p)
		if err != nil {
			return nil, err
		}
		t.feasible = append(t.feasible, costed{p: p, key: p.Key(nil), wrappers: p.Wrappers(), ca: ca, ltb: ltb, serial: serialCycles(d, p)})
	}
	if len(t.feasible) == 0 {
		return nil, fmt.Errorf("core: every candidate configuration is infeasible")
	}
	t.allShare.p = d.AllShare()
	t.allShare.key = t.allShare.p.Key(nil)
	return t, nil
}

// serialCycles is the busiest wrapper group's total test cycles under
// p: the tests behind one wrapper run back to back.
func serialCycles(d *Design, p partition.Partition) int64 {
	var busiest int64
	for _, g := range p {
		var cycles int64
		for _, ci := range g {
			cycles += d.Analog[ci].TotalCycles()
		}
		busiest = max(busiest, cycles)
	}
	return busiest
}

// sharedTable is a design's candidate table under the default cost
// model and the paper's policy — what NewPlanner installs — built on
// first use and then shared by every planner wired to it.
type sharedTable struct {
	once sync.Once
	d    *Design
	t    *candidateTable
	err  error
}

func (s *sharedTable) get() (*candidateTable, error) {
	s.once.Do(func() {
		s.t, s.err = costCandidates(s.d, analog.DefaultCostModel(), partition.PaperPolicy)
	})
	return s.t, s.err
}

// candidate is a feasible configuration of the table with its
// preliminary cost (equation 3) at the run's weights.
type candidate struct {
	*costed
	prelim float64
}

// prune selects the skip tests a solver's replay applies.
type prune struct {
	prelim bool // skip candidates whose preliminary cost cannot win
	bound  bool // skip candidates whose cost lower bound cannot win
}

// run is the state one solver call threads through the planning
// kernel: setup → allShare → speculate → replay. The solvers differ
// only in which candidates they hand the kernel and how they prune.
type run struct {
	*Planner
	ctx      context.Context
	e        *evaluator
	table    *candidateTable
	feasible []candidate // in candidate order
	res      *Result
	best     int // index of the incumbent in res.Evaluated; -1 for none
}

// setup resolves the defaults and the costed candidate table — the
// shared one when the planner is wired to it, else its own — and prices
// every feasible candidate's preliminary cost at the planner's weights.
func (pl *Planner) setup(ctx context.Context, method string) (*run, error) {
	cm, policy, err := pl.defaults()
	if err != nil {
		return nil, err
	}
	var t *candidateTable
	if pl.table != nil {
		t, err = pl.table.get()
	} else {
		t, err = costCandidates(pl.Design, cm, policy)
	}
	if err != nil {
		return nil, err
	}
	r := &run{
		Planner:  pl,
		ctx:      ctx,
		e:        pl.evaluator(),
		table:    t,
		feasible: make([]candidate, len(t.feasible)),
		res:      &Result{Method: method, Candidates: t.candidates, Infeasible: t.infeasible},
		best:     -1,
	}
	for i := range t.feasible {
		c := &t.feasible[i]
		r.feasible[i] = candidate{costed: c, prelim: pl.Weights.Time*c.ltb + pl.Weights.Area*c.ca}
	}
	return r, nil
}

// allShare computes T(all-share), the CT normalization base. With more
// than one worker it first packs the all-share point and warm in
// parallel; the replay accounts them.
func (r *run) allShare(warm []candidate) error {
	if r.workers() > 1 {
		if err := ForEachCtx(r.ctx, len(warm)+1, r.workers(), func(i int) {
			if i == 0 {
				_, _ = r.e.compute(r.ctx, r.table.allShare.p, r.table.allShare.key)
				return
			}
			_, _ = r.e.compute(r.ctx, warm[i-1].p, warm[i-1].key)
		}); err != nil {
			return err
		}
	}
	s, err := r.e.schedule(r.ctx, r.table.allShare.p, r.table.allShare.key)
	if err != nil {
		return err
	}
	r.res.AllShare = s.Makespan
	return nil
}

// cost is the full cost of c at makespan t.
func (r *run) cost(c candidate, t int64) (ct, cost float64) {
	ct = 100 * float64(t) / float64(r.res.AllShare)
	return ct, r.Weights.Time*ct + r.Weights.Area*c.ca
}

// skip reports whether c cannot strictly beat the incumbent cost inc:
// first the prelim prune, then the bound prune, the one that counts
// toward Result.Pruned. Nothing is skipped while inc is +Inf.
func (r *run) skip(c candidate, inc float64, pr prune) (skip, pruned bool, err error) {
	if math.IsInf(inc, 1) {
		return false, false, nil
	}
	if pr.prelim && c.prelim >= inc {
		return true, false, nil
	}
	if !pr.bound {
		return false, false, nil
	}
	lb, err := r.bound(r.e, c.costed, r.res.AllShare)
	if err != nil {
		return false, false, err
	}
	return lb >= inc, lb >= inc, nil
}

// bestCost is the incumbent cost, the one the replay must strictly beat.
func (r *run) bestCost() float64 {
	if r.best < 0 {
		return math.Inf(1)
	}
	return r.res.Evaluated[r.best].Cost
}

// speculate packs list in parallel under an atomically tightening copy
// of the incumbent, skipping what skip rejects, so candidates that
// cannot win are never packed. It only warms the cache: the replay is
// the sole authority on what is evaluated, so a speculative packing the
// replay skips is cached but never counted toward NEval or Pruned.
func (r *run) speculate(list []candidate, pr prune) error {
	if r.workers() < 2 {
		return nil
	}
	inc := newIncumbent(r.bestCost())
	return ForEachCtx(r.ctx, len(list), r.workers(), func(i int) {
		c := list[i]
		if skip, _, err := r.skip(c, inc.load(), pr); err != nil || skip {
			return // the replay reports errors deterministically
		}
		s, err := r.e.compute(r.ctx, c.p, c.key)
		if err != nil {
			return
		}
		_, cost := r.cost(c, s.Makespan)
		inc.lower(cost)
	})
}

// replay walks list in order over the warmed cache, skips what skip
// rejects, evaluates the rest into res.Evaluated, and moves the
// incumbent only on a strict improvement — so the Result, NEval and
// Evaluated order included, is identical at any worker count.
func (r *run) replay(list []candidate, pr prune) error {
	for _, c := range list {
		skip, pruned, err := r.skip(c, r.bestCost(), pr)
		if err != nil {
			return err
		}
		if pruned {
			r.res.Pruned++
		}
		if skip {
			continue
		}
		s, err := r.e.schedule(r.ctx, c.p, c.key)
		if err != nil {
			return err
		}
		t := s.Makespan
		ct, cost := r.cost(c, t)
		r.res.Evaluated = append(r.res.Evaluated, Evaluation{
			Partition: c.p, TestTime: t, CT: ct, CA: c.ca, Cost: cost, Prelim: c.prelim,
		})
		if r.best < 0 || cost < r.bestCost() {
			r.best = len(r.res.Evaluated) - 1
		}
	}
	return nil
}

// result finishes the Result: the incumbent is the best configuration,
// and NEval is what the evaluator accounted.
func (r *run) result() *Result {
	r.res.Best = r.res.Evaluated[r.best]
	r.res.NEval = r.e.runs()
	return r.res
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
	r, err := pl.setup(ctx, "exhaustive")
	if err != nil {
		return nil, err
	}
	// Unbounded, the warm-up packs every candidate. Bounded, packing
	// everything would defeat the pruning, so the speculative pass runs
	// instead once the normalization time is known.
	warm, pr := r.feasible, prune{bound: pl.Bounded}
	if pl.Bounded {
		warm = nil
	}
	if err := r.allShare(warm); err != nil {
		return nil, err
	}
	if pl.Bounded {
		if err := r.speculate(r.feasible, pr); err != nil {
			return nil, err
		}
	}
	if err := r.replay(r.feasible, pr); err != nil {
		return nil, err
	}
	return r.result(), nil
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
	r, err := pl.setup(ctx, "cost-optimizer")
	if err != nil {
		return nil, err
	}
	// Lines 1-6: a bucket is a run of equal wrapper counts, most
	// wrappers first; within it members go by preliminary cost, then
	// label, so its first member is its representative.
	slices.SortFunc(r.feasible, func(a, b candidate) int {
		if c := cmp.Compare(b.wrappers, a.wrappers); c != 0 {
			return c
		}
		if c := cmp.Compare(a.prelim, b.prelim); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	var reps []candidate
	for i, c := range r.feasible {
		if i == 0 || c.wrappers != r.feasible[i-1].wrappers {
			reps = append(reps, c)
		}
	}

	// Lines 7-13: evaluate every representative. The all-share
	// configuration is the single member of the 1-wrapper bucket under
	// the paper's policy, so its normalization run is reused there.
	if err := r.allShare(reps); err != nil {
		return nil, err
	}
	if err := r.replay(reps, prune{}); err != nil {
		return nil, err
	}

	// Lines 14-18: eliminate buckets whose representative is more than
	// ε worse than the best one, then evaluate the other members of the
	// survivors, filtered in place (the write index trails the read
	// index).
	bestRep, g, wrappers := r.bestCost(), -1, 0
	rest := r.feasible[:0]
	for _, c := range r.feasible {
		if c.wrappers != wrappers {
			g, wrappers = g+1, c.wrappers // the representative, already evaluated
			continue
		}
		if r.res.Evaluated[g].Cost <= bestRep+pl.Epsilon {
			rest = append(rest, c)
		}
	}
	pr := prune{prelim: pl.PrunePrelim, bound: pl.Bounded}
	if err := r.speculate(rest, pr); err != nil {
		return nil, err
	}
	if err := r.replay(rest, pr); err != nil {
		return nil, err
	}
	return r.result(), nil
}

package core

import (
	"context"
	"fmt"
)

// SweepPoint is one solved planning instance of a trade-off sweep.
type SweepPoint struct {
	Width   int
	Weights Weights
	Result  *Result
}

// SweepOptions configures SweepWith.
type SweepOptions struct {
	// Exhaustive solves every point optimally; otherwise the
	// Cost_Optimizer heuristic runs.
	Exhaustive bool
	// WarmStart chains TAM packings across the width dimension: widths
	// are solved one at a time in the order the caller listed them, and
	// each width's packings are seeded from the nearest *completed*
	// width on either side — the best of the narrower and wider
	// candidates wins per configuration (tam.WithWarmStart) — so the
	// improve loop starts from a near-feasible schedule instead of
	// packing three orderings from scratch. For the common ascending
	// width list that degenerates to the classic "seed from the
	// previous narrower width" chain; other orders (say, widest first,
	// or middle-out) let wider completed widths seed narrower ones via
	// a guided re-pack. The chaining is deterministic — a width's
	// caches are complete before the next width starts — but
	// warm-started packing follows a different search trajectory than
	// cold packing, so makespans can differ slightly from a cold sweep
	// (in either direction; the polish loops are shared and monotone).
	// The paper tables therefore run cold; use WarmStart for wide
	// exploratory sweeps where throughput matters more than bit-exact
	// reproducibility.
	WarmStart bool
	// Bounded enables branch-and-bound pruning per grid point: each
	// planner skips packing candidates whose admissible cost lower
	// bound cannot beat its incumbent (see Planner.Bounded). Every
	// point's best cost and selection are bit-identical to an unbounded
	// sweep; NEval and Evaluated shrink to the survivors, with
	// Result.Pruned counting the skips.
	Bounded bool
	// Configure adjusts each planner before it runs, e.g. to change the
	// cost model. It runs after the sweep has wired the planner's caches
	// and packer, so what it installs is what packs: a Configure that
	// replaces Cache, Staircases, Digital or Packer takes over that
	// wiring. It must not change the planner's Design or Width, and must
	// be safe to call concurrently.
	Configure func(*Planner)
	// Workers is the sweep's own CPU budget; 0 means DefaultWorkers.
	// With Slots set it is a floor, not a ceiling.
	Workers int
	// Slots, when non-nil, is a worker pool whose idle slots the sweep
	// borrows on top of Workers: each grid fan-out (the cold grid, and
	// each width's weights in a WarmStart chain) starts one more cell
	// worker per slot it can take with Slots.tryAcquire, and a borrowed
	// slot is held for exactly one cell and given back before the next
	// cell is claimed, so a request waiting in Slots.Acquire waits at
	// most one cell. The pool changes wall-clock only: every point,
	// NEval, Pruned and Evaluated order is what the sweep returns
	// without it. Single planners never borrow: a planner's
	// speculative packs are not cells, and packs its replay skips would
	// be wasted work. A nil pool, or one with no idle slot, runs the
	// plain Workers fan-out.
	Slots *Slots
	// Backend selects the packing backend by name for every grid point
	// (see PlanOptions.Backend). Empty is the default occupancy path —
	// bit-identical to a sweep before backends existed; an unknown name
	// fails the sweep before any point is solved.
	Backend string
	// Select, when non-nil, restricts the sweep to the grid points for
	// which it returns true — the hook a sharded runner uses to solve
	// only its cells of a larger (width, weights) grid. The returned
	// slice holds only the selected points, still in weights-major
	// order. In a cold sweep each selected point is bit-identical to
	// the corresponding point of an unrestricted sweep; with WarmStart
	// the chain runs over the selected widths only, each seeding from
	// the nearest completed *selected* width on either side, so a
	// point's makespan can differ from a full warm sweep's whenever the
	// selection changes its seeds (shard cold sweeps where exact
	// reproduction matters).
	// Schedule caches exist only for widths with at least one selected
	// point — an unselected width is never packed.
	Select func(width int, weights Weights) bool
	// DesignHash, when non-empty, is the caller's DesignHash of the
	// design, which Engine.Sweep then trusts as the session key instead
	// of hashing the design again; see PlanOptions.DesignHash. One-shot
	// SweepWith keeps no sessions and ignores it.
	DesignHash string
}

// SweepWith solves the planning problem across TAM widths and weight
// settings. Grid points at the same TAM width share one schedule cache
// (test schedules do not depend on the cost weights), and the whole
// sweep shares one wrapper staircase cache (a module's staircase at a
// narrower width is a prefix of its staircase at a wider one), so no
// configuration is ever packed — and no wrapper ever designed — twice.
// The returned slice is ordered weights-major exactly as a sequential
// sweep.
//
// Without WarmStart the grid points fan out across the worker pool and
// the result is bit-identical to a sequential cold sweep. With
// WarmStart the width dimension runs one width at a time in the
// caller's order, each width seeded from the nearest completed widths
// (see SweepOptions.WarmStart). With Select only the chosen grid
// points are solved — and only their widths ever allocate a schedule
// cache or design a wrapper staircase.
func SweepWith(d *Design, widths []int, weights []Weights, opt SweepOptions) ([]SweepPoint, error) {
	return SweepWithContext(context.Background(), d, widths, weights, opt)
}

// SweepWithContext is SweepWith under a context: once ctx fires no new
// grid point is dispatched, the in-flight planners abort at their next
// cancellation point, and the call returns ctx.Err(). Schedules whose
// packing was aborted are dropped from the caches rather than memoized,
// so the sweep's caches stay consistent across a cancellation.
func SweepWithContext(ctx context.Context, d *Design, widths []int, weights []Weights, opt SweepOptions) ([]SweepPoint, error) {
	// A throwaway engine session over the caller's own design: nothing
	// outlives the call, so there is nothing to clone or key by hash,
	// and a Configure hook sees the design it was handed.
	maxW := 0
	for _, w := range widths {
		maxW = max(maxW, w)
	}
	return sweep(ctx, NewEngine(EngineOptions{MaxWidth: maxW}).newSession(d, ""), widths, weights, opt)
}

// sweep is the sweep engine room, planning on session s's design with
// its wiring for widths up to the widest selected one. Schedule caches
// come from the session only for cold sweeps: a WarmStart sweep packs
// along a different search trajectory, so its schedules must never
// enter a shared cold cache (they would break the bit-identity of later
// cold calls); it still shares the staircase cache, which is exact.
func sweep(ctx context.Context, s *engineSession, widths []int, weights []Weights, opt SweepOptions) ([]SweepPoint, error) {
	if len(widths) == 0 || len(weights) == 0 {
		return nil, fmt.Errorf("core: sweep needs at least one width and one weight setting")
	}
	workers := opt.Workers
	if workers < 1 {
		workers = DefaultWorkers()
	}
	// Dense grid indices of the selected points, weights-major; the
	// staircase and schedule caches cover exactly the selected widths.
	keep := make([]int, 0, len(weights)*len(widths))
	keepSet := make(map[int]bool, len(weights)*len(widths))
	maxW := 0
	selWidths := make(map[int]bool, len(widths))
	for k, wt := range weights {
		for ci, w := range widths {
			if opt.Select != nil && !opt.Select(w, wt) {
				continue
			}
			keep = append(keep, k*len(widths)+ci)
			keepSet[k*len(widths)+ci] = true
			selWidths[w] = true
			maxW = max(maxW, w)
		}
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("core: sweep selection admits no grid points")
	}
	pc, err := s.caches(maxW, opt.Backend)
	if err != nil {
		return nil, err
	}
	schedules := make(map[int]*ScheduleCache, len(selWidths))
	for w := range selWidths {
		if opt.WarmStart {
			// Private, but its packs still count in the engine's
			// lifetime pair, as every session cache's do.
			schedules[w] = NewScheduleCache()
			schedules[w].total = &s.engine.schedules
		} else {
			schedules[w] = pc.cache(w)
		}
	}

	out := make([]SweepPoint, len(weights)*len(widths))
	errs := make([]error, len(out))
	solve := func(i int, warm []*ScheduleCache, inner int) {
		wt := weights[i/len(widths)]
		w := widths[i%len(widths)]
		pl := NewPlanner(s.design, w, wt)
		pc.wire(pl, schedules[w])
		pl.Warm = warm
		pl.Workers = inner
		pl.Bounded = opt.Bounded
		if opt.Configure != nil {
			// The hook may change the cost model or policy, so the
			// planner costs its own candidates.
			pl.table = nil
			opt.Configure(pl)
		}
		var (
			res *Result
			err error
		)
		if opt.Exhaustive {
			res, err = pl.ExhaustiveContext(ctx)
		} else {
			res, err = pl.CostOptimizerContext(ctx)
		}
		if err != nil {
			errs[i] = fmt.Errorf("core: sweep W=%d wT=%.2f: %w", w, wt.Time, err)
			return
		}
		out[i] = SweepPoint{Width: w, Weights: wt, Result: res}
	}

	if !opt.WarmStart {
		outer, inner := SplitWorkers(workers, len(keep))
		forEach(ctx, len(keep), outer, opt.Slots, func(j int) { solve(keep[j], nil, inner) })
	} else {
		// Selected widths in the caller's first-appearance order; each
		// width's caches complete before the next width starts, so every
		// peek is deterministic, and every seed comes from a width that
		// actually packed. The seeds for a width are the caches of the
		// nearest completed width below and above it, nearest first
		// (narrower on an exact distance tie).
		order := make([]int, 0, len(selWidths))
		seen := make(map[int]bool, len(selWidths))
		for _, w := range widths {
			if selWidths[w] && !seen[w] {
				seen[w] = true
				order = append(order, w)
			}
		}
		outer, inner := SplitWorkers(workers, len(weights))
		completed := make([]int, 0, len(order))
		for _, w := range order {
			warm := warmSources(completed, w, schedules)
			// Membership comes from the precomputed keep set, not a
			// re-invocation of opt.Select, which need not be safe for
			// concurrent use.
			forEach(ctx, len(weights), outer, opt.Slots, func(k int) {
				for ci, cw := range widths {
					if cw == w && keepSet[k*len(widths)+ci] {
						solve(k*len(widths)+ci, warm, inner)
					}
				}
			})
			completed = append(completed, w)
		}
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(keep) == len(out) {
		return out, nil
	}
	pts := make([]SweepPoint, 0, len(keep))
	for _, i := range keep {
		pts = append(pts, out[i])
	}
	return pts, nil
}

// warmSources picks the warm-start seed caches for width w: the caches
// of the nearest completed width below and above it, nearest first,
// with the narrower width winning an exact distance tie.
func warmSources(completed []int, w int, caches map[int]*ScheduleCache) []*ScheduleCache {
	below, above := -1, -1
	for _, c := range completed {
		if c < w && (below < 0 || c > below) {
			below = c
		}
		if c > w && (above < 0 || c < above) {
			above = c
		}
	}
	switch {
	case below >= 0 && above >= 0:
		if w-below <= above-w {
			return []*ScheduleCache{caches[below], caches[above]}
		}
		return []*ScheduleCache{caches[above], caches[below]}
	case below >= 0:
		return []*ScheduleCache{caches[below]}
	case above >= 0:
		return []*ScheduleCache{caches[above]}
	}
	return nil
}

// BestOver returns the sweep point with the lowest best-configuration
// cost, breaking ties toward narrower TAMs (cheaper wiring).
func BestOver(points []SweepPoint) (SweepPoint, error) {
	if len(points) == 0 {
		return SweepPoint{}, fmt.Errorf("core: empty sweep")
	}
	best := points[0]
	for _, p := range points[1:] {
		c, bc := p.Result.Best.Cost, best.Result.Best.Cost
		if c < bc || (c == bc && p.Width < best.Width) {
			best = p
		}
	}
	return best, nil
}

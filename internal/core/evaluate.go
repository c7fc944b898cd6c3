package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mixsoc/internal/analog"
	"mixsoc/internal/partition"
	"mixsoc/internal/tam"
	"mixsoc/internal/wrapper"
)

// ScheduleCache is a concurrency-safe store of TAM schedules keyed by
// sharing configuration, for one design at one TAM width. Sharing a
// cache between evaluators (e.g. across the weight settings of a Table 4
// sweep, or between an exhaustive and a heuristic run at the same width)
// deduplicates the packing work without changing any reported numbers:
// the TAM optimizer is deterministic, so a cached schedule is identical
// to a recomputed one, and each Evaluator still counts its own NEval.
//
// Cancellation never poisons the cache: a computation aborted by its
// caller's context is dropped rather than memoized, so the next request
// for the same configuration computes it afresh and every completed
// entry is one a cold call would have produced bit-identically.
type ScheduleCache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry

	hits, misses atomic.Uint64
}

type cacheEntry struct {
	done chan struct{} // closed once s/err are final
	s    *tam.Schedule
	err  error
}

// completed reports whether the entry's computation has finished.
func (e *cacheEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// NewScheduleCache returns an empty schedule cache.
func NewScheduleCache() *ScheduleCache {
	return &ScheduleCache{m: map[string]*cacheEntry{}}
}

// entry returns the entry for key, creating it if absent; owner reports
// whether this caller created it and therefore must compute it and
// close done. Waiters select on done against their own context, so one
// caller's slow computation never pins another caller past its
// deadline.
func (c *ScheduleCache) entry(key string) (e *cacheEntry, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e = c.m[key]
	if e == nil {
		e = &cacheEntry{done: make(chan struct{})}
		c.m[key] = e
		return e, true
	}
	return e, false
}

// Peek returns the already-computed schedule for key, or nil if the key
// has never been computed (or failed). It never blocks on an in-flight
// computation and never triggers one: warm-start chaining uses it to
// ask "did the previous width pack this configuration?" without
// perturbing the previous width's cache.
func (c *ScheduleCache) Peek(key string) *tam.Schedule {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	e := c.m[key]
	c.mu.Unlock()
	if e == nil || !e.completed() || e.err != nil {
		return nil
	}
	return e.s
}

// drop removes the entry for key if it is still the given one, so a
// computation aborted by context cancellation is forgotten instead of
// memoized. Idempotent under concurrent callers.
func (c *ScheduleCache) drop(key string, ent *cacheEntry) {
	c.mu.Lock()
	if c.m[key] == ent {
		delete(c.m, key)
	}
	c.mu.Unlock()
}

// Len returns the number of cached entries, completed or in flight.
func (c *ScheduleCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// CacheStats counts how schedule requests were served: a miss is a
// computation owned (the TAM optimizer ran, or the entry errored while
// building its jobs), a hit a result served from a completed or
// in-flight entry without computing. The serving layer exports these
// as its cache-efficiency metrics.
type CacheStats struct {
	// Hits is the number of requests served without a TAM run.
	Hits uint64 `json:"hits"`
	// Misses is the number of requests that ran the TAM optimizer.
	Misses uint64 `json:"misses"`
}

// Stats returns the cache's hit/miss counters.
func (c *ScheduleCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Evaluator runs TAM optimizations for sharing configurations of one
// design at one TAM width, caching results by configuration. It counts
// the number of distinct TAM optimizer runs, the NEval metric of
// Table 4. It is safe for concurrent use: parallel planners prefetch
// schedules through it (Prefetch does not count toward NEval) and a
// deterministic replay then accounts the runs in sequential order.
type Evaluator struct {
	Design *Design
	Width  int

	// Staircases, when non-nil, serves the digital cores' wrapper
	// staircases from a design-level cache shared across widths (see
	// wrapper.StaircaseCache); nil computes them from scratch. Set it
	// before the evaluator's first use.
	Staircases *wrapper.StaircaseCache

	// Digital, when non-nil together with a non-empty DigitalKey, serves
	// the design's digital TAM jobs from a cross-design cache keyed by
	// (DigitalKey, Width) — see DigitalJobsCache. DigitalKey must be the
	// design's DigitalHash. Set both before the evaluator's first use.
	Digital    *DigitalJobsCache
	DigitalKey string

	// Warm lists the schedule caches of adjacent TAM widths, nearest
	// first: configurations already packed there seed this evaluator's
	// TAM runs via tam.WithWarmStart, the best adoption winning (a
	// narrower width's schedule is adopted verbatim, a wider width's
	// re-placed in seed order). Set it before the evaluator's first use,
	// and only from sweep drivers whose source widths are complete —
	// Peek never blocks, so a racing source cache would make warm
	// seeding (not results, but timing) nondeterministic.
	Warm []*ScheduleCache

	// Packer is the packing backend every TAM run goes through;
	// NewSharedEvaluator sets the default occupancy backend. The backing
	// cache must be private to this backend (an Engine session keeps one
	// schedule cache per (width, backend) pair): entries carry no backend
	// tag of their own, so mixing backends in one cache would serve one
	// backend's schedule as another's. Set it before the evaluator's
	// first use.
	Packer tam.Packer

	cache *ScheduleCache

	mu      sync.Mutex
	counted map[string]bool // NEval is its size

	// The digital cores' wrapper staircases are identical for every
	// sharing configuration, so they are designed once per evaluator and
	// shared by all schedules (the packer never mutates jobs).
	digOnce    sync.Once
	digital    []*tam.Job
	digitalErr error

	// floor is the width part of Bounded mode's makespan bound (see
	// boundFloor), set by the first bound probe, so unbounded plans
	// never compute it.
	floor atomic.Pointer[tam.Floor]
}

// NewEvaluator returns an evaluator for the design at the given width
// with a private schedule cache.
func NewEvaluator(d *Design, width int) *Evaluator {
	return NewSharedEvaluator(d, width, nil)
}

// NewSharedEvaluator returns an evaluator backed by the given schedule
// cache; nil means a private cache. The cache must only be shared
// between evaluators of the same design and width.
func NewSharedEvaluator(d *Design, width int, cache *ScheduleCache) *Evaluator {
	if cache == nil {
		cache = NewScheduleCache()
	}
	return &Evaluator{Design: d, Width: width, Packer: tam.OccupancyPacker{}, cache: cache, counted: map[string]bool{}}
}

// Runs returns the number of TAM optimizer invocations accounted so far:
// distinct configurations requested through Schedule or TestTime.
// Prefetched schedules are not counted until (unless) they are requested.
func (e *Evaluator) Runs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.counted)
}

func (e *Evaluator) digitalJobs() ([]*tam.Job, error) {
	e.digOnce.Do(func() {
		e.digital, e.digitalErr = e.Digital.jobs(e.DigitalKey, e.Width, func() ([]*tam.Job, error) {
			return DigitalJobsWith(e.Design, e.Width, e.Staircases)
		})
	})
	return e.digital, e.digitalErr
}

// boundFloor returns the part of every candidate's makespan bound that
// does not depend on the partition: the digital jobs' admissible floor
// at the evaluator's width, plus the volume of every analog test. A
// candidate's bound raises Longest to its serialization floor (see
// bound.go). The first probe computes it and later ones read it;
// concurrent first probes may each compute it, identically. It sits
// behind a pointer because every plan allocates an evaluator and most
// plans never probe a bound.
func (e *Evaluator) boundFloor() (tam.Floor, error) {
	if fl := e.floor.Load(); fl != nil {
		return *fl, nil
	}
	digital, err := e.digitalJobs()
	if err != nil {
		return tam.Floor{}, err
	}
	fl := tam.AdmissibleFloor(digital, e.Width)
	for _, c := range e.Design.Analog {
		for ti := range c.Tests {
			fl.Volume += int64(c.Tests[ti].TAMWidth) * c.Tests[ti].Cycles
		}
	}
	e.floor.Store(&fl)
	return fl, nil
}

// compute returns the schedule for (p, key), serving completed cache
// entries and computing missing ones single-flight: the caller that
// creates the entry packs it, everyone else waits on the entry OR
// their own context — whichever fires first — so a slow computation
// never pins a waiter past its deadline. A computation aborted by its
// owner's cancellation is dropped from the cache, never memoized; a
// live waiter that observes one retries with a fresh entry. The
// hit/miss counters record one miss per TAM run and one hit per
// result actually served from the cache.
func (e *Evaluator) compute(ctx context.Context, p partition.Partition, key string) (*tam.Schedule, error) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done() // nil channel (nil ctx) blocks forever
	}
	for {
		ent, owner := e.cache.entry(key)
		if owner {
			e.cache.misses.Add(1)
			e.fill(ctx, p, key, ent)
		} else {
			select {
			case <-ent.done:
			case <-ctxDone:
				return nil, ctx.Err()
			}
		}
		if ent.err != nil && (errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded)) {
			e.cache.drop(key, ent)
			if ctx != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue // the owner's cancellation, not ours: recompute
		}
		if !owner && ent.err == nil {
			e.cache.hits.Add(1)
		}
		return ent.s, ent.err
	}
}

// fill packs the schedule for (p, key) into the owned entry and closes
// its done channel.
func (e *Evaluator) fill(ctx context.Context, p partition.Partition, key string, ent *cacheEntry) {
	defer close(ent.done)
	digital, err := e.digitalJobs()
	if err != nil {
		ent.err = err
		return
	}
	jobs, err := appendAnalogJobs(digital, e.Design, p)
	if err != nil {
		ent.err = err
		return
	}
	var opts []tam.Option
	for _, warm := range e.Warm {
		if seed := warm.Peek(key); seed != nil {
			opts = append(opts, tam.WithWarmStart(seed))
		}
	}
	if ctx != nil {
		opts = append(opts, tam.WithContext(ctx))
	}
	ent.s, ent.err = e.Packer.Pack(jobs, e.Width, opts...)
}

// Schedule returns the rectangle-packed schedule for configuration p,
// computing it on first use anywhere (this evaluator or a shared cache)
// and counting it toward Runs on first use here.
func (e *Evaluator) Schedule(p partition.Partition) (*tam.Schedule, error) {
	return e.ScheduleContext(nil, p)
}

// ScheduleContext is Schedule under a context: the TAM packing loops
// poll ctx and the call returns ctx.Err() once it fires, with the
// aborted computation dropped from the cache rather than memoized. A
// nil ctx never cancels.
func (e *Evaluator) ScheduleContext(ctx context.Context, p partition.Partition) (*tam.Schedule, error) {
	key := p.Key(nil)
	s, err := e.compute(ctx, p, key)
	if err != nil {
		return nil, err
	}
	e.count(key)
	return s, nil
}

// count accounts the schedule under key toward Runs, once per key.
func (e *Evaluator) count(key string) {
	e.mu.Lock()
	e.counted[key] = true
	e.mu.Unlock()
}

// Prefetch computes and caches the schedule for configuration p without
// counting it toward Runs. Parallel planners use it to warm the cache
// speculatively; errors are deliberately dropped here and resurface,
// deterministically, when the schedule is actually requested.
func (e *Evaluator) Prefetch(p partition.Partition) {
	e.PrefetchContext(nil, p)
}

// PrefetchContext is Prefetch under a context; a cancelled prefetch
// leaves no trace in the cache.
func (e *Evaluator) PrefetchContext(ctx context.Context, p partition.Partition) {
	_, _ = e.compute(ctx, p, p.Key(nil))
}

// TestTime returns the SOC test time for configuration p in cycles.
func (e *Evaluator) TestTime(p partition.Partition) (int64, error) {
	return e.TestTimeContext(nil, p)
}

// TestTimeContext is TestTime under a context; see ScheduleContext.
func (e *Evaluator) TestTimeContext(ctx context.Context, p partition.Partition) (int64, error) {
	s, err := e.ScheduleContext(ctx, p)
	if err != nil {
		return 0, err
	}
	return s.Makespan, nil
}

// DigitalJobs builds the TAM jobs of the design's digital cores: one
// flexible job per core carrying its wrapper staircase (Pareto widths up
// to the TAM width). The result is independent of the analog sharing
// configuration.
func DigitalJobs(d *Design, width int) ([]*tam.Job, error) {
	return DigitalJobsWith(d, width, nil)
}

// DigitalJobsWith is DigitalJobs drawing staircases from a design-level
// cache when sc is non-nil, so a width sweep designs each module's
// wrapper once instead of once per width.
func DigitalJobsWith(d *Design, width int, sc *wrapper.StaircaseCache) ([]*tam.Job, error) {
	if width < 1 {
		return nil, fmt.Errorf("core: TAM width %d < 1", width)
	}
	var jobs []*tam.Job
	for _, m := range d.Digital.Cores() {
		pts, err := sc.Pareto(m, width)
		if err != nil {
			return nil, err
		}
		if pts[0].Time == 0 {
			// A module whose test takes zero cycles (zero patterns, or
			// no scan and no functional pins) occupies no TAM time at
			// all; scheduling it would only produce a degenerate job
			// the packer rejects.
			continue
		}
		name := m.Name
		if name == "" {
			name = fmt.Sprintf("module%d", m.ID)
		}
		jobs = append(jobs, &tam.Job{ID: name, Options: pts})
	}
	return jobs, nil
}

// appendAnalogJobs returns a new job slice extending digital with one
// fixed job per analog test, tagged with the serialization group of the
// wrapper that serves its core under partition p. digital is not
// modified.
func appendAnalogJobs(digital []*tam.Job, d *Design, p partition.Partition) ([]*tam.Job, error) {
	if p.N() != len(d.Analog) {
		return nil, fmt.Errorf("core: partition covers %d cores, design has %d", p.N(), len(d.Analog))
	}
	jobs := make([]*tam.Job, len(digital), len(digital)+4*len(d.Analog))
	copy(jobs, digital)
	for gi, g := range p {
		group := fmt.Sprintf("wrapper%d", gi)
		for _, ci := range g {
			c := d.Analog[ci]
			for ti := range c.Tests {
				t := &c.Tests[ti]
				jobs = append(jobs, &tam.Job{
					ID:      fmt.Sprintf("%s/%s", c.Name, t.Name),
					Options: []wrapper.Point{{Width: t.TAMWidth, Time: t.Cycles}},
					Group:   group,
				})
			}
		}
	}
	return jobs, nil
}

// Evaluation is the full costing of one sharing configuration.
type Evaluation struct {
	// Partition is the sharing configuration. It is shared with the
	// candidate enumeration (see Design.Candidates) and must be treated
	// as read-only.
	Partition partition.Partition
	TestTime  int64   // SOC test time, cycles
	CT        float64 // test time normalized to the all-share case (≈ ≤ 100)
	CA        float64 // area-overhead cost of equation (1)
	Cost      float64 // wT·CT + wA·CA
	Prelim    float64 // preliminary cost wT·LTBnorm + wA·CA (equation 3)
}

// Label renders the configuration's shared groups as the paper does.
func (ev *Evaluation) Label(names []string) string {
	return ev.Partition.FormatShared(names)
}

// Weights are the cost weighting factors of Problem P_msoc.
type Weights struct {
	Time float64 // wT
	Area float64 // wA
}

// Validate enforces wT + wA = 1 with both non-negative.
func (w Weights) Validate() error {
	if w.Time < 0 || w.Area < 0 {
		return fmt.Errorf("core: negative cost weight %+v", w)
	}
	if d := w.Time + w.Area - 1; d > 1e-9 || d < -1e-9 {
		return fmt.Errorf("core: cost weights must sum to 1, got %v", w.Time+w.Area)
	}
	return nil
}

// EqualWeights is the balanced setting wT = wA = 0.5.
var EqualWeights = Weights{Time: 0.5, Area: 0.5}

// costParts computes everything about configuration p except the test
// time, which requires a TAM run.
func costParts(d *Design, cm analog.CostModel, p partition.Partition) (ca, ltbNorm float64, err error) {
	ca, err = cm.AreaOverheadPercent(d.Analog, p)
	if err != nil {
		return 0, 0, err
	}
	ltbNorm, err = analog.NormalizedLTB(d.Analog, p)
	if err != nil {
		return 0, 0, err
	}
	return ca, ltbNorm, nil
}

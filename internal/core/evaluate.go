package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
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
// to a recomputed one, and each planner still counts its own NEval.
//
// Cancellation never poisons the cache: a computation aborted by its
// caller's context is dropped rather than memoized, so the next request
// for the same configuration computes it afresh and every completed
// entry is one a cold call would have produced bit-identically.
type ScheduleCache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry

	cacheCounters
	// total, when set, is the owning engine's lifetime pair, which the
	// cache counts into first, so packs finished after the engine
	// evicted the cache still count.
	total *cacheCounters
}

// cacheCounters is a hit/miss counter pair.
type cacheCounters struct{ hits, misses atomic.Uint64 }

func (c *cacheCounters) stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
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

// peek returns the already-computed schedule for key, or nil if the key
// has never been computed (or failed). It never blocks on an in-flight
// computation and never triggers one: warm-start chaining uses it to
// ask "did the previous width pack this configuration?" without
// perturbing the previous width's cache.
func (c *ScheduleCache) peek(key string) *tam.Schedule {
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
	return c.stats()
}

// evaluator runs the TAM optimizations of one solve through its
// planner's wiring (Cache, Staircases, Digital, Warm, Packer) and
// counts the distinct configurations the solve accounted, the NEval
// metric of Table 4. It is safe for concurrent use: parallel planners
// pack speculatively through compute, which counts nothing, and a
// deterministic replay then accounts the runs in sequential order.
type evaluator struct {
	pl    *Planner
	cache *ScheduleCache // pl.Cache, or a private one

	mu      sync.Mutex
	counted map[string]bool // NEval is its size

	// The digital cores' wrapper staircases are identical for every
	// sharing configuration, so they are designed once per evaluator and
	// shared by all schedules (the packer never mutates jobs).
	digOnce    sync.Once
	digital    []*tam.Job
	digitalErr error

	analog atomic.Pointer[analogJobs] // built by the first pack

	// floor is the width part of Bounded mode's makespan bound (see
	// boundFloor), set by the first bound probe, so unbounded plans
	// never compute it.
	floor atomic.Pointer[tam.Floor]
}

// runs returns the number of TAM optimizer invocations accounted so
// far: distinct configurations requested through schedule.
func (e *evaluator) runs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.counted)
}

func (e *evaluator) digitalJobs() ([]*tam.Job, error) {
	e.digOnce.Do(func() {
		pl := e.pl
		e.digital, e.digitalErr = pl.Digital.jobs(pl.DigitalKey, pl.Width, func() ([]*tam.Job, error) {
			return DigitalJobsWith(pl.Design, pl.Width, pl.Staircases)
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
func (e *evaluator) boundFloor() (tam.Floor, error) {
	if fl := e.floor.Load(); fl != nil {
		return *fl, nil
	}
	digital, err := e.digitalJobs()
	if err != nil {
		return tam.Floor{}, err
	}
	fl := tam.AdmissibleFloor(digital, e.pl.Width)
	for _, c := range e.pl.Design.Analog {
		for ti := range c.Tests {
			fl.Volume += int64(c.Tests[ti].TAMWidth) * c.Tests[ti].Cycles
		}
	}
	e.floor.Store(&fl)
	return fl, nil
}

// jobs returns the TAM jobs for configuration p: the shared digital
// jobs followed by the analog jobs p's wrappers serve. Past the first
// call it allocates only the job slice and the analog job structs.
func (e *evaluator) jobs(p partition.Partition) ([]*tam.Job, error) {
	digital, err := e.digitalJobs()
	if err != nil {
		return nil, err
	}
	a := e.analog.Load()
	if a == nil {
		// Concurrent first packs may each build it, identically.
		a = newAnalogJobs(e.pl.Design)
		e.analog.Store(a)
	}
	return a.appendTo(digital, p)
}

// compute returns the schedule for (p, key), serving completed cache
// entries and computing missing ones single-flight: the caller that
// creates the entry packs it, everyone else waits on the entry OR
// their own context — whichever fires first — so a slow computation
// never pins a waiter past its deadline. A computation aborted by its
// owner's cancellation is dropped from the cache, never memoized; a
// live waiter that observes one retries with a fresh entry. The
// hit/miss counters record one miss per TAM run and one hit per
// result actually served from the cache. It counts nothing toward
// NEval.
func (e *evaluator) compute(ctx context.Context, p partition.Partition, key string) (*tam.Schedule, error) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done() // nil channel (nil ctx) blocks forever
	}
	for {
		ent, owner := e.cache.entry(key)
		if owner {
			if e.cache.total != nil {
				e.cache.total.misses.Add(1)
			}
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
			if e.cache.total != nil {
				e.cache.total.hits.Add(1)
			}
			e.cache.hits.Add(1)
		}
		return ent.s, ent.err
	}
}

// fill packs the schedule for (p, key) into the owned entry and closes
// its done channel.
func (e *evaluator) fill(ctx context.Context, p partition.Partition, key string, ent *cacheEntry) {
	defer close(ent.done)
	jobs, err := e.jobs(p)
	if err != nil {
		ent.err = err
		return
	}
	var opts []tam.Option
	for _, warm := range e.pl.Warm {
		if seed := warm.peek(key); seed != nil {
			opts = append(opts, tam.WithWarmStart(seed))
		}
	}
	if ctx != nil {
		opts = append(opts, tam.WithContext(ctx))
	}
	pk := e.pl.Packer
	if pk == nil {
		pk = tam.OccupancyPacker{}
	}
	ent.s, ent.err = pk.Pack(jobs, e.pl.Width, opts...)
}

// schedule returns the packed schedule for configuration p, whose key
// is p.Key(nil), computing it on first use anywhere (this evaluator or
// a shared cache) and counting it toward runs on first use here. The
// TAM packing loops poll ctx and the call returns ctx.Err() once it
// fires, with the aborted computation dropped from the cache rather
// than memoized. A nil ctx never cancels.
func (e *evaluator) schedule(ctx context.Context, p partition.Partition, key string) (*tam.Schedule, error) {
	s, err := e.compute(ctx, p, key)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.counted[key] = true
	e.mu.Unlock()
	return s, nil
}

// DigitalJobsWith builds the TAM jobs of the design's digital cores: one
// flexible job per core carrying its wrapper staircase (Pareto widths up
// to the TAM width), drawn from sc when it is non-nil, so a width sweep
// designs each module's wrapper once instead of once per width. The
// result is independent of the analog sharing configuration.
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

// analogJobs is the part of a design's analog TAM jobs that no
// partition changes: per analog core, one job per test carrying its ID
// and its one fixed-shape option, and the group name of each wrapper
// index. appendTo fills in the groups.
type analogJobs struct {
	tests  [][]tam.Job // per analog core, Group unset
	groups []string    // "wrapper<i>" for wrapper index i
	n      int         // analog tests in all
}

func newAnalogJobs(d *Design) *analogJobs {
	a := &analogJobs{tests: make([][]tam.Job, len(d.Analog)), groups: make([]string, len(d.Analog))}
	for ci, c := range d.Analog {
		a.groups[ci] = "wrapper" + strconv.Itoa(ci)
		a.tests[ci] = make([]tam.Job, len(c.Tests))
		for ti := range c.Tests {
			t := &c.Tests[ti]
			a.tests[ci][ti] = tam.Job{ID: c.Name + "/" + t.Name, Options: []wrapper.Point{{Width: t.TAMWidth, Time: t.Cycles}}}
		}
		a.n += len(c.Tests)
	}
	return a
}

// appendTo returns a new job slice extending digital with one fixed job
// per analog test, tagged with the serialization group of the wrapper
// that serves its core under partition p. digital is not modified, and
// the jobs share their IDs and options with the templates, which is
// safe because the packer never mutates jobs.
func (a *analogJobs) appendTo(digital []*tam.Job, p partition.Partition) ([]*tam.Job, error) {
	if p.N() != len(a.tests) {
		return nil, fmt.Errorf("core: partition covers %d cores, design has %d", p.N(), len(a.tests))
	}
	jobs := make([]*tam.Job, len(digital), len(digital)+a.n)
	copy(jobs, digital)
	analog := make([]tam.Job, 0, a.n)
	for gi, g := range p {
		group := ""
		if gi < len(a.groups) {
			group = a.groups[gi]
		} else { // only past empty groups, which no candidate has
			group = "wrapper" + strconv.Itoa(gi)
		}
		for _, ci := range g {
			for _, t := range a.tests[ci] {
				t.Group = group
				analog = append(analog, t)
				jobs = append(jobs, &analog[len(analog)-1])
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

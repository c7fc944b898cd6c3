package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mixsoc/internal/itc02"
	"mixsoc/internal/partition"
	"mixsoc/internal/tam"
	"mixsoc/internal/wrapper"
)

// EngineOptions configures NewEngine. The zero value is a sensible
// default for a long-lived process.
type EngineOptions struct {
	// MaxDesigns bounds the number of design cache sessions kept alive;
	// the least-recently-used session is evicted past it. Default 8.
	MaxDesigns int
	// MaxWidth is the TAM width the per-design staircase caches
	// precompute up to; wider requests still work (the cache grows on
	// demand). Default 64, the widest width the paper sweeps.
	MaxWidth int
	// MaxWidthCaches bounds the schedule caches kept per design — one
	// cache per TAM width planned — evicting the least-recently-used
	// width past it, so a client scanning many widths cannot grow a
	// session without limit. Default 32.
	MaxWidthCaches int
	// Workers is the CPU budget each planning call runs with; 0 means
	// DefaultWorkers. The worker count never changes results — parallel
	// planners replay deterministically — only wall-clock. For a sweep
	// given a pool (SweepOptions.Slots) it is a floor: the grid borrows
	// the pool's idle slots on top of it, one cell at a time. Single
	// plans never borrow.
	Workers int
	// MaxModuleStairs bounds the cross-design staircase store: one entry
	// per distinct module content hash. Default 4096.
	MaxModuleStairs int
	// MaxDigitalJobs bounds the cross-design digital-jobs cache: one
	// entry per distinct (digital SOC, width) pair. Default 128.
	MaxDigitalJobs int
}

// Engine is a long-lived planning handle: it owns a staircase cache and
// per-width schedule caches for every design it has seen, keyed by the
// design's content hash (DesignHash), evicts whole designs by LRU, and
// threads context cancellation through every planning call. All methods
// are safe for concurrent use, and every result is bit-identical to an
// unwired planner's (NewPlanner with no caches set): the caches only
// deduplicate deterministic work, and warm-started sweeps never write
// into the shared cold caches.
//
// A zero-valued Engine is not usable; construct with NewEngine.
type Engine struct {
	opts EngineOptions

	// The cross-design module-level caches: every session's staircase cache routes through moduleStairs under module
	// content hashes, and every session's evaluators draw built digital
	// job slices from digitalJobs under the design's DigitalHash — so
	// near-duplicate designs, which never share a session, still share
	// the wrapper work their common modules imply.
	moduleStairs *wrapper.ModuleStairStore
	digitalJobs  *DigitalJobsCache

	mu       sync.Mutex
	sessions map[string]*engineSession
	seq      uint64 // LRU clock, bumped per session access
	// schedules is the engine-lifetime schedule-cache counter pair:
	// every session's schedule caches count into it as they count
	// their own hits and misses, so it stays monotonic — the property a
	// Prometheus scrape counter needs — and complete even as the LRU
	// bounds drop caches that planners still use.
	schedules cacheCounters

	designHits, designMisses, evictions, plans atomic.Uint64

	// backends holds one counter block per registered tam backend,
	// fixed at construction: every engine pack counts in its backend's
	// block (default packs in occupancy's), and tournament wins land in
	// the winner's block.
	backends map[string]*backendCounters
}

// engineSession is the cache state of one design, and every planning
// call's only source of cache wiring: the design, its cross-width
// staircase cache, its candidate table, and one cold schedule cache per
// TAM width. An Engine keeps one per canonicalized design; a one-shot
// SweepWith plans on a throwaway one over the caller's design.
type engineSession struct {
	engine *Engine
	hash   string
	design *Design
	// digitalHash keys the engine's cross-design digital-jobs cache;
	// empty when hashing failed.
	digitalHash string
	maxWidths   int // schedule caches kept before width-LRU eviction
	// table is the design's costed candidate table, built by the first
	// planning call and read by every later one.
	table *sharedTable

	plans atomic.Uint64 // planning calls served

	mu       sync.Mutex
	stairs   *wrapper.StaircaseCache
	byWidth  map[widthKey]*widthCache
	widthSeq uint64 // width-LRU clock, under mu
	lastUse  uint64 // under Engine.mu
}

// widthKey keys a session's schedule caches: one cache per (TAM width,
// resolved packer name) pair, so an empty backend selection and
// "occupancy" share one cache, while a backend's schedules can never be
// served to (or from) another backend.
type widthKey struct {
	width   int
	backend string
}

// widthCache is one width's schedule cache plus its LRU stamp.
type widthCache struct {
	cache   *ScheduleCache
	lastUse uint64
}

// NewEngine returns an engine with the given options.
func NewEngine(opts EngineOptions) *Engine {
	if opts.MaxDesigns < 1 {
		opts.MaxDesigns = 8
	}
	if opts.MaxWidth < 1 {
		opts.MaxWidth = 64
	}
	if opts.MaxWidthCaches < 1 {
		opts.MaxWidthCaches = 32
	}
	if opts.MaxModuleStairs < 1 {
		opts.MaxModuleStairs = 4096
	}
	if opts.MaxDigitalJobs < 1 {
		opts.MaxDigitalJobs = 128
	}
	e := &Engine{opts: opts, sessions: map[string]*engineSession{}, backends: map[string]*backendCounters{}}
	for _, name := range tam.Backends() {
		e.backends[name] = &backendCounters{}
	}
	e.moduleStairs = wrapper.NewModuleStairStore(opts.MaxWidth, opts.MaxModuleStairs)
	e.digitalJobs = NewDigitalJobsCache(opts.MaxDigitalJobs)
	return e
}

func (e *Engine) workers() int {
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return DefaultWorkers()
}

// packerFor resolves a backend selection (empty = the default
// occupancy backend) to an instrumented packer: individual backends are
// wrapped so every pack lands in the engine's per-backend counters, and
// a tournament additionally feeds the win counter of each pack's winner.
func (e *Engine) packerFor(name string) (tam.Packer, error) {
	switch name {
	case BackendTournament:
		backends := make([]tam.Packer, 0, len(e.backends))
		for _, n := range tam.Backends() {
			p, err := tam.Lookup(n)
			if err != nil {
				return nil, err
			}
			backends = append(backends, countingPacker{Packer: p, c: e.backends[n]})
		}
		t := &tournamentPacker{backends: backends}
		t.onWin = func(n string) {
			if c := e.backends[n]; c != nil {
				c.wins.Add(1)
			}
		}
		return t, nil
	}
	p, err := PackerFor(name)
	if err != nil {
		return nil, err
	}
	return countingPacker{Packer: p, c: e.backends[p.Name()]}, nil
}

// session returns the cache session for the design's content hash,
// creating (and LRU-evicting) as needed. hash is the caller's
// DesignHash(d); empty means session validates and hashes d itself.
// The session plans against an engine-owned deep copy (CloneDesign) of
// the first design seen with that hash, so callers may mutate or
// discard their design afterwards — and so the pointer-keyed staircase
// cache actually hits across calls that pass separately allocated but
// identical designs. d is validated once at most: before hashing when
// hash is empty, otherwise only on a miss. Only a miss clones d; a hit
// plans on the session's own copy, validated when it was created.
func (e *Engine) session(d *Design, hash string) (*engineSession, error) {
	validated := hash == ""
	if validated {
		// DesignHash needs a well-formed design (no nil modules).
		if err := d.Validate(); err != nil {
			return nil, err
		}
		var err error
		if hash, err = DesignHash(d); err != nil {
			return nil, err
		}
	}

	e.mu.Lock()
	e.seq++
	if s := e.sessions[hash]; s != nil {
		s.lastUse = e.seq
		e.mu.Unlock()
		e.designHits.Add(1)
		return s, nil
	}
	e.mu.Unlock()

	// Validate and clone outside the lock; on a double-create race the
	// first insert wins and the loser's clone is dropped.
	if !validated {
		if err := d.Validate(); err != nil {
			return nil, err
		}
	}
	clone, err := CloneDesign(d)
	if err != nil {
		return nil, err
	}
	s := e.newSession(clone, hash)
	// A failed hash (practically impossible) leaves the key empty, which
	// simply opts the session out of digital-jobs sharing.
	s.digitalHash, _ = DigitalHash(clone)

	e.mu.Lock()
	defer e.mu.Unlock()
	if prev := e.sessions[hash]; prev != nil {
		prev.lastUse = e.seq
		e.designHits.Add(1)
		return prev, nil
	}
	e.designMisses.Add(1)
	s.lastUse = e.seq
	e.sessions[hash] = s
	for len(e.sessions) > e.opts.MaxDesigns {
		oldest := ""
		for h, cand := range e.sessions {
			if oldest == "" || cand.lastUse < e.sessions[oldest].lastUse {
				oldest = h
			}
		}
		delete(e.sessions, oldest)
		e.evictions.Add(1)
	}
	return s, nil
}

// newSession returns a session planning on d itself, outside the
// engine's session map, with no digital-jobs sharing (digitalHash "").
func (e *Engine) newSession(d *Design, hash string) *engineSession {
	s := &engineSession{
		engine:    e,
		hash:      hash,
		design:    d,
		maxWidths: e.opts.MaxWidthCaches,
		table:     &sharedTable{d: d},
		byWidth:   map[widthKey]*widthCache{},
	}
	s.stairs = s.newStairs(e.opts.MaxWidth)
	return s
}

// newStairs builds a session staircase cache up to maxW, routed through
// the engine's cross-design store, so identical modules of different
// designs share their staircases.
func (s *engineSession) newStairs(maxW int) *wrapper.StaircaseCache {
	sc := wrapper.NewStaircaseCache(maxW)
	sc.Share(s.engine.moduleStairs, func(m *itc02.Module) string {
		h, err := ModuleHash(m)
		if err != nil {
			return ""
		}
		return h
	})
	return sc
}

// planCaches is one planning call's wiring: the session, its staircase
// cache as of the call, and the engine packer for the call's backend.
type planCaches struct {
	s      *engineSession
	stairs *wrapper.StaircaseCache
	packer tam.Packer
}

// caches wires a planning call over widths up to maxW to the session:
// the engine's instrumented packer for the backend, the engine's
// digital-jobs cache, the session's cold schedule caches, its
// candidate table, and its staircase cache. The staircase cache grows
// (is replaced by a wider, initially empty one) when the call needs
// widths beyond what it precomputes; the prefix property keeps its
// answers bit-identical.
func (s *engineSession) caches(maxW int, backend string) (*planCaches, error) {
	pk, err := s.engine.packerFor(backend)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if maxW > s.stairs.MaxWidth() {
		s.stairs = s.newStairs(maxW)
	}
	stairs := s.stairs
	s.mu.Unlock()
	return &planCaches{s: s, stairs: stairs, packer: pk}, nil
}

// cache returns the session's cold schedule cache for width w.
func (c *planCaches) cache(w int) *ScheduleCache {
	return c.s.scheduleCache(w, c.packer.Name())
}

// wire connects pl to the caches, with sc as its schedule cache.
func (c *planCaches) wire(pl *Planner, sc *ScheduleCache) {
	pl.Cache = sc
	pl.Staircases = c.stairs
	pl.Digital, pl.DigitalKey = c.s.engine.digitalJobs, c.s.digitalHash
	pl.Packer = c.packer
	pl.table = c.s.table
}

// scheduleCache returns the session's cold schedule cache for width w
// under the named (resolved) packer, created on first use. (width,
// backend) pairs are LRU-bounded (maxWidths): evicting one only
// unshares it — planners already holding the cache keep using it safely
// — so a client scanning thousands of widths cannot grow the session
// without limit.
func (s *engineSession) scheduleCache(w int, backend string) *ScheduleCache {
	key := widthKey{width: w, backend: backend}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.widthSeq++
	if c := s.byWidth[key]; c != nil {
		c.lastUse = s.widthSeq
		return c.cache
	}
	c := &widthCache{cache: NewScheduleCache(), lastUse: s.widthSeq}
	c.cache.total = &s.engine.schedules
	s.byWidth[key] = c
	for len(s.byWidth) > s.maxWidths {
		oldest, oldestUse := widthKey{}, ^uint64(0)
		for cw, cand := range s.byWidth {
			if cand.lastUse < oldestUse {
				oldest, oldestUse = cw, cand.lastUse
			}
		}
		delete(s.byWidth, oldest)
	}
	return c.cache
}

// PlanOptions selects the solver variant of Engine.PlanWith.
type PlanOptions struct {
	// Exhaustive evaluates every candidate configuration (the paper's
	// baseline) instead of the Cost_Optimizer heuristic.
	Exhaustive bool
	// Bounded enables branch-and-bound pruning; best cost and selection
	// stay bit-identical to an unbounded solve (see Planner.Bounded).
	Bounded bool
	// Backend selects the packing backend by name — "occupancy",
	// "rectangle", or "tournament" (every backend packs, best makespan
	// wins). Empty means the default occupancy backend; an unknown name
	// is an error. Schedules are cached per resolved backend, so
	// backends never serve each other's packings.
	Backend string
	// DesignHash, when non-empty, is the caller's DesignHash of the
	// design, which the engine then trusts as the session key: a call
	// that hits an existing session neither hashes nor validates the
	// design again. It must equal DesignHash(d); empty means the engine
	// validates and hashes the design itself.
	DesignHash string
}

// Plan runs the paper's Cost_Optimizer heuristic on the design at TAM
// width w, serving wrapper staircases and TAM schedules from the
// design's cache session. The Result — including NEval — is
// bit-identical to an unwired NewPlanner planner's: caches only
// deduplicate deterministic work, and each call accounts its own
// evaluations.
func (e *Engine) Plan(ctx context.Context, d *Design, width int, w Weights) (*Result, error) {
	return e.PlanWith(ctx, d, width, w, PlanOptions{})
}

// PlanExhaustive is Plan with the exhaustive baseline solver.
func (e *Engine) PlanExhaustive(ctx context.Context, d *Design, width int, w Weights) (*Result, error) {
	return e.PlanWith(ctx, d, width, w, PlanOptions{Exhaustive: true})
}

// PlanWith is Plan with explicit solver options, the entry point the
// serving layer's bounded and batch requests use.
func (e *Engine) PlanWith(ctx context.Context, d *Design, width int, w Weights, opts PlanOptions) (*Result, error) {
	s, err := e.session(d, opts.DesignHash)
	if err != nil {
		return nil, err
	}
	s.plans.Add(1)
	e.plans.Add(1)
	pc, err := s.caches(width, opts.Backend)
	if err != nil {
		return nil, err
	}
	pl := NewPlanner(s.design, width, w)
	pc.wire(pl, pc.cache(width))
	pl.Workers = e.workers()
	pl.Bounded = opts.Bounded
	if opts.Exhaustive {
		return pl.ExhaustiveContext(ctx)
	}
	return pl.CostOptimizerContext(ctx)
}

// Schedule returns the packed TAM schedule for one sharing
// configuration at width w, served from (and cached in) the design's
// session. hash is the caller's DesignHash(d), trusted as
// PlanOptions.DesignHash is; empty means Schedule validates and hashes
// d itself. The returned schedule is shared and must be treated as
// read-only.
func (e *Engine) Schedule(ctx context.Context, d *Design, p partition.Partition, width int, hash string) (*tam.Schedule, error) {
	s, err := e.session(d, hash)
	if err != nil {
		return nil, err
	}
	s.plans.Add(1)
	e.plans.Add(1)
	pc, err := s.caches(width, "")
	if err != nil {
		return nil, err
	}
	pl := &Planner{Design: s.design, Width: width}
	pc.wire(pl, pc.cache(width))
	return pl.evaluator().schedule(ctx, p, p.Key(nil))
}

// Sweep solves the planning problem across TAM widths and weight
// settings against the design's cache session; see SweepWithContext
// for the cancellation contract. Cold sweeps read and populate the
// session's schedule caches (bit-identical to one-shot SweepWith);
// WarmStart sweeps draw only the staircase cache, keeping the shared
// schedule caches strictly cold.
func (e *Engine) Sweep(ctx context.Context, d *Design, widths []int, weights []Weights, opt SweepOptions) ([]SweepPoint, error) {
	s, err := e.session(d, opt.DesignHash)
	if err != nil {
		return nil, err
	}
	s.plans.Add(1)
	e.plans.Add(1)
	if opt.Workers == 0 {
		opt.Workers = e.workers()
	}
	return sweep(ctx, s, widths, weights, opt)
}

// DesignInfo describes one live cache session of an Engine.
type DesignInfo struct {
	// Hash is the design's content hash, the session key.
	Hash string `json:"hash"`
	// Name is the display name the design was first registered under.
	Name string `json:"name"`
	// Plans counts the planning calls served for this design.
	Plans uint64 `json:"plans"`
	// Widths lists the TAM widths with a live schedule cache, ascending.
	Widths []int `json:"widths,omitempty"`
	// Schedules is the total number of cached TAM schedules.
	Schedules int `json:"schedules"`
}

// Designs lists the engine's live cache sessions, most recently used
// first.
func (e *Engine) Designs() []DesignInfo {
	e.mu.Lock()
	sessions := make([]*engineSession, 0, len(e.sessions))
	for _, s := range e.sessions {
		sessions = append(sessions, s)
	}
	sort.Slice(sessions, func(a, b int) bool { return sessions[a].lastUse > sessions[b].lastUse })
	e.mu.Unlock()

	out := make([]DesignInfo, 0, len(sessions))
	for _, s := range sessions {
		info := DesignInfo{Hash: s.hash, Name: s.design.Name, Plans: s.plans.Load()}
		s.mu.Lock()
		widths := map[int]bool{}
		for k, c := range s.byWidth {
			// A width planned under several backends holds one cache per
			// backend but lists once.
			if !widths[k.width] {
				widths[k.width] = true
				info.Widths = append(info.Widths, k.width)
			}
			info.Schedules += c.cache.Len()
		}
		s.mu.Unlock()
		sort.Ints(info.Widths)
		out = append(out, info)
	}
	return out
}

// EngineMetrics aggregates an Engine's cache counters.
type EngineMetrics struct {
	// Designs is the number of live cache sessions.
	Designs int `json:"designs"`
	// DesignHits counts calls served by an existing session; a miss
	// created one.
	DesignHits uint64 `json:"design_hits"`
	// DesignMisses counts sessions created.
	DesignMisses uint64 `json:"design_misses"`
	// Evictions counts sessions dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Schedule aggregates the hit/miss counters of every live schedule
	// cache: a miss ran the TAM optimizer, a hit reused a packing.
	Schedule CacheStats `json:"schedule"`
	// ScheduleTotal is the engine-lifetime schedule counter: every hit
	// and miss of every session schedule cache, counted as it happens,
	// including those after the LRU bounds evicted the cache. Unlike
	// Schedule it never decreases, which is what a Prometheus counter
	// scrape needs.
	ScheduleTotal CacheStats `json:"schedule_total"`
	// Schedules is the total number of cached TAM schedules.
	Schedules int `json:"schedules"`
	// ModuleStairs counts how the cross-design staircase store served
	// module staircase requests: a miss designed a wrapper (or grew an
	// entry), a hit reused one — including hits between sessions of
	// near-duplicate designs.
	ModuleStairs CacheStats `json:"module_stairs"`
	// ModuleStairEntries is the number of distinct module content hashes
	// the staircase store currently holds.
	ModuleStairEntries int `json:"module_stair_entries"`
	// DigitalJobs counts how the cross-design digital-jobs cache served
	// job-slice requests, one per (design, width) evaluator spin-up.
	DigitalJobs CacheStats `json:"digital_jobs"`
	// DigitalJobEntries is the number of (digital SOC, width) job slices
	// currently cached.
	DigitalJobEntries int `json:"digital_job_entries"`
	// Plans is the engine-lifetime count of planning calls (Plan,
	// PlanExhaustive, Schedule, Sweep), across live and evicted sessions.
	Plans uint64 `json:"plans"`
	// BackendPacks counts TAM packs by backend name — default packs
	// under occupancy, tournament packs once per participating backend.
	// Nil until the engine's first pack.
	BackendPacks map[string]BackendPackStats `json:"backend_packs,omitempty"`
	// TournamentWins counts, per backend name, the tournament packs the
	// backend won (smallest makespan, ties to registry order). Nil until
	// a tournament runs.
	TournamentWins map[string]uint64 `json:"tournament_wins,omitempty"`
}

// Metrics returns the engine's cache counters. Schedule hit/miss
// numbers cover live width caches of live sessions only (evicted
// sessions and evicted widths take their counters with them);
// ScheduleTotal counts every lookup of every session cache, evicted
// ones included, so it is monotonic across the engine's lifetime.
func (e *Engine) Metrics() EngineMetrics {
	m := EngineMetrics{
		DesignHits:   e.designHits.Load(),
		DesignMisses: e.designMisses.Load(),
		Evictions:    e.evictions.Load(),
		Plans:        e.plans.Load(),
	}
	m.ModuleStairs.Hits, m.ModuleStairs.Misses = e.moduleStairs.Stats()
	m.ModuleStairEntries = e.moduleStairs.Len()
	m.DigitalJobs = e.digitalJobs.Stats()
	m.DigitalJobEntries = e.digitalJobs.Len()
	for name, c := range e.backends {
		if ok, errs := c.ok.Load(), c.errs.Load(); ok != 0 || errs != 0 {
			if m.BackendPacks == nil {
				m.BackendPacks = map[string]BackendPackStats{}
			}
			m.BackendPacks[name] = BackendPackStats{OK: ok, Errors: errs}
		}
		if wins := c.wins.Load(); wins != 0 {
			if m.TournamentWins == nil {
				m.TournamentWins = map[string]uint64{}
			}
			m.TournamentWins[name] = wins
		}
	}
	e.mu.Lock()
	sessions := make([]*engineSession, 0, len(e.sessions))
	for _, s := range e.sessions {
		sessions = append(sessions, s)
	}
	e.mu.Unlock()
	m.Designs = len(sessions)
	for _, s := range sessions {
		s.mu.Lock()
		for _, c := range s.byWidth {
			st := c.cache.Stats()
			m.Schedule.Hits += st.Hits
			m.Schedule.Misses += st.Misses
			m.Schedules += c.cache.Len()
		}
		s.mu.Unlock()
	}
	// Read after the live caches, which count after it, so Schedule
	// never exceeds it.
	m.ScheduleTotal = e.schedules.stats()
	return m
}

// String summarizes the engine for logs.
func (e *Engine) String() string {
	m := e.Metrics()
	return fmt.Sprintf("engine: %d designs, %d schedules cached, schedule hits/misses %d/%d",
		m.Designs, m.Schedules, m.Schedule.Hits, m.Schedule.Misses)
}

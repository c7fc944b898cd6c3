package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"mixsoc/internal/core"
	"mixsoc/internal/itc02"
	"mixsoc/internal/service"
	"mixsoc/internal/tam"
	"mixsoc/internal/wrapper"
)

// span is one timed call into a layer. Spans of one request share its
// request index as trace ID; Parent 0 marks a root.
type span struct {
	Name   string         `json:"name"`
	Trace  int            `json:"trace"`
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Counts map[string]int `json:"counts,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is safe for concurrent use (batch items replay in parallel).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(trace, parent int, name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: now})
	return id
}

// end closes span id, attaching its counts.
func (t *tracer) end(id int, counts map[string]int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// do runs fn inside a span; fn receives the span's ID (to parent child
// spans) and returns the span's counts.
func (t *tracer) do(trace, parent int, name string, fn func(id int) (map[string]int, error)) error {
	id := t.begin(trace, parent, name)
	counts, err := fn(id)
	t.end(id, counts)
	return err
}

// reset drops every span recorded so far (the plan-hot pre-warm).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
}

// selfTimes returns each span's self time by ID: its duration minus the
// union of its children's intervals. Children can overlap — packs of a
// parallel planner, items of a batch — so their durations are not simply
// subtracted.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the spans' intervals,
// clipped to parent's.
func covered(parent span, spans []span) int64 {
	type interval struct{ lo, hi int64 }
	ivs := make([]interval, 0, len(spans))
	for _, s := range spans {
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, lo, hi int64
	for i, iv := range ivs {
		switch {
		case i == 0:
			lo, hi = iv.lo, iv.hi
		case iv.lo > hi:
			total += hi - lo
			lo, hi = iv.lo, iv.hi
		default:
			hi = max(hi, iv.hi)
		}
	}
	if len(ivs) > 0 {
		total += hi - lo
	}
	return total
}

// The cache sizes core.NewEngine defaults to when EngineOptions leaves
// them zero, as msoc-serve does. They must track core.NewEngine: the
// core package does not export them. A drift changes hit counts and
// timings, not answers, so the byte checks would miss it; the traced
// phase's pack count check below catches it when packs change. The
// engine's 32 schedule caches per session need no counterpart: no
// workload plans a design at more than seven widths.
const (
	engineMaxWidth        = 64
	engineMaxModuleStairs = 4096
	engineMaxDigitalJobs  = 128
)

// decomposer replays requests through the layers' public functions,
// wiring caches as core.Engine does: one staircase cache per design
// routed through a shared module staircase store keyed by
// core.ModuleHash, one schedule cache per (design, width), a shared
// digital-jobs cache, at most maxDesigns design sessions evicted least
// recently used first, and the engine's per-request worker count.
// Packing goes through timedPacker, so every pack is a tam.pack span.
type decomposer struct {
	tr      *tracer
	inner   int // planner workers per request
	slots   int // batch items planned at once (the server's pool)
	store   *wrapper.ModuleStairStore
	digital *core.DigitalJobsCache

	mu       sync.Mutex
	seq      uint64 // session use counter, for LRU eviction
	sessions map[string]*session
}

// session is the decomposition's counterpart of an engine session.
type session struct {
	design      *core.Design
	digitalHash string
	stairs      *wrapper.StaircaseCache
	lastUse     uint64 // guarded by decomposer.mu

	mu     sync.Mutex
	caches map[int]*core.ScheduleCache
}

func newDecomposer(tr *tracer) *decomposer {
	return &decomposer{
		tr:       tr,
		inner:    innerWorkers(),
		slots:    poolSlots(),
		store:    wrapper.NewModuleStairStore(engineMaxWidth, engineMaxModuleStairs),
		digital:  core.NewDigitalJobsCache(engineMaxDigitalJobs),
		sessions: map[string]*session{},
	}
}

// session returns the cache session of the design hashing to h, planning
// against the first design seen with that hash as the engine does. A new
// session evicts the least recently used one beyond maxDesigns.
func (dc *decomposer) session(h string, d *core.Design) *session {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	dc.seq++
	if s := dc.sessions[h]; s != nil {
		s.lastUse = dc.seq
		return s
	}
	s := &session{design: d, stairs: wrapper.NewStaircaseCache(engineMaxWidth), lastUse: dc.seq, caches: map[int]*core.ScheduleCache{}}
	s.stairs.Share(dc.store, func(m *itc02.Module) string {
		k, err := core.ModuleHash(m)
		if err != nil {
			return ""
		}
		return k
	})
	s.digitalHash, _ = core.DigitalHash(d) // an empty key opts out of sharing, as in the engine
	dc.sessions[h] = s
	for len(dc.sessions) > maxDesigns {
		oldest := ""
		for k, cand := range dc.sessions {
			if oldest == "" || cand.lastUse < dc.sessions[oldest].lastUse {
				oldest = k
			}
		}
		delete(dc.sessions, oldest)
	}
	return s
}

func (s *session) cache(width int) *core.ScheduleCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.caches[width]
	if c == nil {
		c = core.NewScheduleCache()
		s.caches[width] = c
	}
	return c
}

// wire connects a planner to the session's caches as the engine's
// session planner does, packing through a timedPacker under parent.
func (dc *decomposer) wire(pl *core.Planner, s *session, trace, parent int) {
	pl.Cache = s.cache(pl.Width)
	pl.Staircases = s.stairs
	pl.Digital, pl.DigitalKey = dc.digital, s.digitalHash
	pl.Workers = dc.inner
	pl.Packer = timedPacker{tr: dc.tr, trace: trace, parent: parent}
}

// resolve runs the codec.resolve and codec.hash spans.
func (dc *decomposer) resolve(trace, parent int, inline json.RawMessage, soc, benchmark string) (d *core.Design, h string, err error) {
	err = dc.tr.do(trace, parent, "codec.resolve", func(int) (map[string]int, error) {
		d, err = resolveDesign(inline, soc, benchmark)
		return nil, err
	})
	if err != nil {
		return nil, "", err
	}
	err = dc.tr.do(trace, parent, "codec.hash", func(int) (map[string]int, error) {
		h, err = core.DesignHash(d)
		return nil, err
	})
	return d, h, err
}

// prepare runs the layers planning builds on: candidate enumeration,
// the digital wrapper staircases up to maxW, and one digital job slice
// per width.
func (dc *decomposer) prepare(trace, parent int, s *session, maxW int, widths []int) error {
	_ = dc.tr.do(trace, parent, "partition.enumerate", func(int) (map[string]int, error) {
		return map[string]int{"candidates": len(s.design.Candidates(nil))}, nil
	})
	err := dc.tr.do(trace, parent, "wrapper.pareto", func(int) (map[string]int, error) {
		cores := s.design.Digital.Cores()
		for _, m := range cores {
			if _, err := s.stairs.Pareto(m, maxW); err != nil {
				return nil, err
			}
		}
		return map[string]int{"modules": len(cores)}, nil
	})
	if err != nil {
		return err
	}
	for _, w := range widths {
		err := dc.tr.do(trace, parent, "jobs.build", func(int) (map[string]int, error) {
			jobs, err := core.DigitalJobsWith(s.design, w, s.stairs)
			return map[string]int{"jobs": len(jobs)}, err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (dc *decomposer) plan(ctx context.Context, trace, parent int, s *session, h string, r service.PlanRequest) (*service.PlanResponse, error) {
	if err := dc.prepare(trace, parent, s, r.Width, []int{r.Width}); err != nil {
		return nil, err
	}
	w := weightsOf(r.WT)
	var res *core.Result
	err := dc.tr.do(trace, parent, "planner.solve", func(id int) (map[string]int, error) {
		pl := core.NewPlanner(s.design, r.Width, w)
		dc.wire(pl, s, trace, id)
		pl.Bounded = r.Bounded
		var err error
		if r.Exhaustive {
			res, err = pl.ExhaustiveContext(ctx)
		} else {
			res, err = pl.CostOptimizerContext(ctx)
		}
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	return &service.PlanResponse{DesignHash: h, Width: r.Width, Weights: w, Result: res}, nil
}

// sweep designs the staircases once at the widest width and builds one
// job slice per width, then solves the grid with core.SweepWithContext,
// whose planners Configure wires to the session.
func (dc *decomposer) sweep(ctx context.Context, trace, root int, r service.SweepRequest) (*service.SweepResponse, error) {
	d, h, err := dc.resolve(trace, root, r.Design, r.SOC, r.Benchmark)
	if err != nil {
		return nil, err
	}
	s := dc.session(h, d)
	if err := dc.prepare(trace, root, s, slices.Max(r.Widths), r.Widths); err != nil {
		return nil, err
	}
	var pts []core.SweepPoint
	err = dc.tr.do(trace, root, "planner.solve", func(id int) (map[string]int, error) {
		var err error
		pts, err = core.SweepWithContext(ctx, s.design, r.Widths, sweepWeights(r.WTs), core.SweepOptions{
			Exhaustive: r.Exhaustive,
			Bounded:    r.Bounded,
			Workers:    dc.inner,
			Configure:  func(pl *core.Planner) { dc.wire(pl, s, trace, id) },
		})
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	return &service.SweepResponse{DesignHash: h, Points: pts}, nil
}

// batch resolves and hashes every item, deduplicates them by planKey,
// and plans the unique items as many at a time as the server's pool.
func (dc *decomposer) batch(ctx context.Context, trace, root int, r service.BatchRequest) (*service.BatchResponse, error) {
	type task struct {
		d    *core.Design
		h    string
		item service.PlanRequest
		resp *service.PlanResponse
		err  error
	}
	keys := make([]string, len(r.Items))
	tasks := map[string]*task{}
	var order []*task
	for i, item := range r.Items {
		d, h, err := dc.resolve(trace, root, item.Design, item.SOC, item.Benchmark)
		if err != nil {
			return nil, err
		}
		keys[i] = planKey(h, item)
		if tasks[keys[i]] == nil {
			tk := &task{d: d, h: h, item: item}
			tasks[keys[i]] = tk
			order = append(order, tk)
		}
	}
	core.ForEach(len(order), dc.slots, func(i int) {
		tk := order[i]
		tk.resp, tk.err = dc.plan(ctx, trace, root, dc.session(tk.h, tk.d), tk.h, tk.item)
	})
	resp := &service.BatchResponse{Items: make([]service.BatchItem, len(r.Items)), Deduped: len(r.Items) - len(order)}
	for i, key := range keys {
		tk := tasks[key]
		if tk.err != nil {
			return nil, tk.err
		}
		resp.Items[i] = service.BatchItem{Status: 200, Response: tk.resp}
	}
	return resp, nil
}

// timedPacker is the default occupancy backend with every Pack recorded
// as a tam.pack span. It packs exactly as the engine's default path, so
// the decomposition's answers stay byte-identical to served ones.
type timedPacker struct {
	tr            *tracer
	trace, parent int
}

func (timedPacker) Name() string { return tam.BackendOccupancy }

func (p timedPacker) Pack(jobs []*tam.Job, width int, opts ...tam.Option) (*tam.Schedule, error) {
	id := p.tr.begin(p.trace, p.parent, "tam.pack")
	s, err := tam.OccupancyPacker{}.Pack(jobs, width, opts...)
	p.tr.end(id, map[string]int{"jobs": len(jobs)})
	return s, err
}

// traced is the traced phase's outcome for one workload.
type traced struct {
	spans    []span
	perLayer map[string]float64
	replayed int
	// digestsChecked counts replays whose decomposition bytes were also
	// compared with the bytes the HTTP rounds served.
	digestsChecked int
	// serverMisses is the traced server's schedule misses per replayed
	// request: the packs the engine ran for the sample tam.packs_per_req
	// counts. A decomposition that packs a different number of times
	// fails the run.
	serverMisses float64
}

// layerSpans are the decomposition spans that stand for the service
// call's work; decode and encode happen outside Server.Plan/Sweep/Batch.
var layerSpans = map[string]bool{
	"codec.resolve": true, "codec.hash": true, "partition.enumerate": true,
	"wrapper.pareto": true, "jobs.build": true, "planner.solve": true,
}

// tracePhase replays requests 0..k-1 twice each, sequentially: through
// Server.X on a fresh server (the service.call span) and through the
// decomposition (a decomposition root with one span per layer). The two
// answers must be byte-identical, and equal to what the HTTP rounds
// served where served(i) knows the served digest. plan-hot's server and
// decomposition are pre-warmed with every distinct body first, as its
// fill pass warms the live server.
func tracePhase(ctx context.Context, wl *workload, reqs *requests, k int, served func(i int) *[32]byte, onFail func(format string, args ...any)) (*traced, error) {
	srv := newService()
	defer srv.Close()
	tr := newTracer()
	dc := newDecomposer(tr)
	out := &traced{}

	if reqs.fixed != nil {
		for i := range reqs.fixed {
			req, err := wl.kind.decode(reqs.fixed[i])
			if err != nil {
				return nil, err
			}
			if _, err := wl.kind.call(ctx, srv, req); err != nil {
				return nil, err
			}
			if _, err := wl.kind.decompose(ctx, dc, i, 0, req); err != nil {
				return nil, err
			}
		}
		tr.reset()
	}

	misses0 := srv.Engine().Metrics().ScheduleTotal.Misses
	var neval, pruned int
	for i := range k {
		body, err := reqs.body(i)
		if err != nil {
			return nil, err
		}
		req, err := wl.kind.decode(body)
		if err != nil {
			return nil, err
		}
		call := tr.begin(i, 0, "service.call")
		resp, err := wl.kind.call(ctx, srv, req)
		tr.end(call, nil)
		if err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		var want bytes.Buffer
		if err := service.WriteJSON(&want, resp); err != nil {
			return nil, err
		}
		n, p := wl.kind.work(resp)
		neval += n
		pruned += p

		var got bytes.Buffer
		root := tr.begin(i, 0, "decomposition")
		err = tr.do(i, root, "service.decode", func(int) (map[string]int, error) {
			req, err = wl.kind.decode(body)
			return nil, err
		})
		if err == nil {
			resp, err = wl.kind.decompose(ctx, dc, i, root, req)
		}
		if err == nil {
			err = tr.do(i, root, "service.encode", func(int) (map[string]int, error) {
				err := service.WriteJSON(&got, resp)
				return map[string]int{"bytes": got.Len()}, err
			})
		}
		tr.end(root, nil)
		if err != nil {
			return nil, fmt.Errorf("decomposing request %d: %w", i, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			onFail("request %d: decomposition answer differs from the traced server's", i)
		}
		if d := served(i); d != nil {
			out.digestsChecked++
			if sha256.Sum256(got.Bytes()) != *d {
				onFail("request %d: decomposition answer differs from the served response", i)
			}
		}
	}
	out.spans = tr.spans
	out.replayed = k
	misses := srv.Engine().Metrics().ScheduleTotal.Misses - misses0
	packs := 0
	for _, s := range tr.spans {
		if s.Name == "tam.pack" {
			packs++
		}
	}
	if uint64(packs) != misses {
		onFail("the decomposition packed %d times, the traced server %d: it no longer does the engine's work", packs, misses)
	}
	out.serverMisses = ratio(float64(misses), float64(k))
	out.perLayer = layerMetrics(tr.spans, k)
	out.perLayer["planner.neval_per_req"] = ratio(float64(neval), float64(k))
	out.perLayer["planner.pruned_per_req"] = ratio(float64(pruned), float64(k))
	return out, nil
}

// layerMetrics reduces the spans of k replayed requests to the traced
// per-layer metrics (means per request unless named otherwise).
func layerMetrics(spans []span, k int) map[string]float64 {
	self := selfTimes(spans)
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && layerSpans[s.Name] {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	selfMS := map[string]float64{}
	counts := map[string]float64{}
	calls := map[string]float64{}
	var callMS, coveredMS float64
	for _, s := range spans {
		ms := float64(self[s.ID]) / 1e6
		selfMS[s.Name] += ms
		calls[s.Name]++
		for name, c := range s.Counts {
			counts[s.Name+"."+name] += float64(c)
		}
		switch s.Name {
		case "service.call":
			callMS += float64(s.End-s.Start) / 1e6
		case "decomposition":
			coveredMS += float64(covered(s, children[s.ID])) / 1e6
		}
	}
	per := func(x float64) float64 { return ratio(x, float64(k)) }
	return map[string]float64{
		"service.call_ms":              per(callMS),
		"service.decode_ms":            per(selfMS["service.decode"]),
		"service.encode_ms":            per(selfMS["service.encode"]),
		"service.response_kb":          per(counts["service.encode.bytes"]) / 1024,
		"service.unattributed_ms":      per(callMS - coveredMS),
		"codec.resolve_ms":             per(selfMS["codec.resolve"]),
		"codec.hash_ms":                per(selfMS["codec.hash"]),
		"partition.enumerate_ms":       per(selfMS["partition.enumerate"]),
		"partition.candidates_per_req": per(counts["partition.enumerate.candidates"]),
		"planner.self_ms":              per(selfMS["planner.solve"]),
		"wrapper.pareto_ms":            per(selfMS["wrapper.pareto"]),
		"jobs.build_ms":                per(selfMS["jobs.build"]),
		"tam.pack_ms":                  per(selfMS["tam.pack"]),
		"tam.packs_per_req":            per(calls["tam.pack"]),
		"tam.ms_per_pack":              ratio(selfMS["tam.pack"], calls["tam.pack"]),
		"tam.jobs_per_pack":            ratio(counts["tam.pack.jobs"], calls["tam.pack"]),
		"trace.coverage":               ratio(coveredMS, callMS),
	}
}

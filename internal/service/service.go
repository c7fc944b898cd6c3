// Package service exposes the planning Engine as an HTTP/JSON API —
// the serving layer of the reproduction. The endpoints:
//
//	POST /v1/plan     solve one (width, weights) point
//	POST /v1/batch    solve many plan requests in one call (deduped by
//	                  design hash; each item byte-identical to /v1/plan)
//	POST /v1/sweep    solve a (widths × weights) grid
//	POST /v1/shard    solve one round-robin shard of a sweep (worker half
//	                  of a distributed sweep)
//	POST /v1/sweeps   submit a durable async sweep job (deduped by
//	                  content key; survives coordinator restarts when
//	                  -job-dir is set)
//	GET  /v1/sweeps/{id}         job status with per-shard progress
//	GET  /v1/sweeps/{id}/result  finished job's bytes, identical to a
//	                             synchronous POST /v1/sweep
//	GET  /v1/sweeps/{id}/events  NDJSON stream of shard partials
//	GET  /v1/designs  live cache sessions and cache-hit metrics
//	GET  /metrics     Prometheus text-format scrape surface
//
// plus GET /healthz for probes. Responses are bit-identical to direct
// library calls (mixsoc.Plan, mixsoc.SweepWith): the engine's caches
// only deduplicate deterministic work, floats survive Go's JSON
// round-trip exactly, and msoc-plan -json emits the same bytes for the
// same request, which CI diffs against a live server.
//
// A server given WorkerURLs runs as a *coordinator*: POST /v1/sweep is
// answered by partitioning the (widths × weights) cells round-robin
// (roundRobin, the rule every shard index in this package names) and
// fanning one POST /v1/shard per shard out to the workers under
// per-shard deadlines with retry-by-reassignment, and merging the JSON
// partials into a response byte-identical to an in-process sweep. The
// equality holds because every cell is independent, the workers solve
// their cells with core.SweepOptions.Select (subset == full-sweep bits,
// pinned by TestSweepSelectMatchesFullSweep), and float64s survive the
// JSON hop exactly.
//
// Every request runs under a deadline (client-requested, capped by the
// server) and inside a bounded worker pool (core.Slots): at most
// MaxConcurrent requests plan at once, each with an equal share of the
// server's CPU budget (core.SplitWorkers), and a saturated server
// answers 503 rather than queueing unboundedly. The pool is
// work-conserving for sweep grids: a sweep or shard borrows idle slots
// on top of its share, one grid cell per borrowed slot, and a freed
// slot goes to a waiting request before a sweep can borrow it again, so
// a queued request waits at most one cell. Single plans never borrow.
// Cancelled or timed-out requests abort mid-sweep via context
// cancellation, leaving the engine's caches consistent.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mixsoc/internal/core"
	"mixsoc/internal/registry"
)

// Options configures New. The zero value serves the paper benchmark
// with sensible production defaults.
type Options struct {
	// Engine is the planning engine to serve; nil builds one sized for
	// this server's worker pool.
	Engine *core.Engine
	// Workers is the server's total CPU budget across concurrent
	// requests; 0 means core.DefaultWorkers().
	Workers int
	// MaxConcurrent bounds the planning requests in flight; further
	// requests wait for a slot until their deadline and then get 503.
	// Default 4 (or Workers, if smaller).
	MaxConcurrent int
	// RequestTimeout is the per-request planning deadline, which also
	// caps client-supplied timeout_ms. Default 120s.
	RequestTimeout time.Duration
	// WorkerURLs, when non-empty, runs the server as a distributed-sweep
	// coordinator: POST /v1/sweep fans round-robin shards out to these
	// base URLs (each another msoc-serve exposing POST /v1/shard) and
	// merges the partials. Plan requests and /v1/shard still run
	// in-process. Workers may also arrive from WorkerFile and from
	// POST /v1/workers at runtime.
	WorkerURLs []string
	// WorkerFile names a watched worker membership file (one base URL
	// per line, # comments): it is read at startup and re-read every
	// probe interval; file-sourced workers dropped from the file leave
	// the fleet.
	WorkerFile string
	// ShardTimeout is the coordinator's per-shard-attempt deadline; a
	// worker that has not answered within it is abandoned and the shard
	// reassigned. Default 60s (always additionally capped by the
	// request's own deadline).
	ShardTimeout time.Duration
	// ShardAttempts bounds how many workers one shard is offered to
	// before the sweep fails; attempts walk the fleet's current members
	// (healthiest first) from the shard's home worker. Default: every
	// current member once.
	ShardAttempts int
	// RetryBackoff is the base wait between one shard's attempts,
	// doubling per retry (capped); it keeps a flapping fleet from being
	// hammered with instant reassignments. Default 250ms.
	RetryBackoff time.Duration
	// ProbeInterval is the period of the fleet's background /healthz
	// probes (and of worker-file re-reads). Default 5s.
	ProbeInterval time.Duration
	// ProbeTimeout is the per-probe deadline. Default 2s.
	ProbeTimeout time.Duration
	// ProbeFailureThreshold is how many consecutive failures (probes or
	// shards) evict a worker; the first failure already marks it
	// suspect. Default 3.
	ProbeFailureThreshold int
	// ReadmitBackoff is the initial wait before an evicted worker is
	// re-probed for re-admission, doubling per failed re-probe (capped
	// at 256x). Default 15s.
	ReadmitBackoff time.Duration
	// JobDir, when set, makes POST /v1/sweeps jobs durable: each
	// completed shard is checkpointed under JobDir/<job-id>/ and a
	// restarted server recovers every job from it, re-running only the
	// missing shards. Empty keeps jobs in memory only (still async and
	// deduplicated, but lost on restart).
	JobDir string
	// JobRetention, when positive, is how long a finished or failed
	// job's state (and its JobDir checkpoints) is kept before a
	// background sweep removes it; 0 keeps jobs forever.
	JobRetention time.Duration
	// Logf receives the server's structured log lines: fleet transitions
	// (worker admitted/suspect/evicted/re-admitted/removed), durable-job
	// checkpoint and recovery events, and recovered handler panics (with
	// stack). Nil discards them.
	Logf func(format string, args ...any)
}

// Server answers planning requests over HTTP; build with New, mount
// via Handler, and Close when done to stop the fleet's probe loop.
type Server struct {
	engine   *core.Engine
	slots    *core.Slots
	timeout  time.Duration
	capacity int // resolved CPU budget, advertised via /healthz
	fleet    *fleet
	coord    *coordinator
	jobs     *jobManager
	metrics  *metricsRegistry
	logf     func(format string, args ...any)
	// benchmarks memoizes registry designs; see resolve.
	benchmarks map[string]*memoDesign
}

// New builds a server: it resolves the option defaults, splits the CPU
// budget across the concurrency bound, and (when Options.Engine is
// nil) creates an engine whose planners each use one slot's share — a
// floor for sweeps, which borrow idle slots on top of it.
// Every server owns a worker fleet — usually empty, in which case it
// serves standalone; seeding it via Options.WorkerURLs/WorkerFile or
// growing it through POST /v1/workers makes the server a
// distributed-sweep coordinator.
func New(opts Options) *Server {
	workers := opts.Workers
	if workers < 1 {
		workers = core.DefaultWorkers()
	}
	maxConc := opts.MaxConcurrent
	if maxConc < 1 {
		maxConc = 4
	}
	if maxConc > workers {
		maxConc = workers
	}
	timeout := opts.RequestTimeout
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	_, inner := core.SplitWorkers(workers, maxConc)
	engine := opts.Engine
	if engine == nil {
		engine = core.NewEngine(core.EngineOptions{Workers: inner})
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	slots := core.NewSlots(maxConc)
	s := &Server{
		engine:   engine,
		slots:    slots,
		timeout:  timeout,
		capacity: workers,
		metrics:  newMetricsRegistry(slots),
		logf:     logf,
		// The registry's names and "" (the default), filled on first use.
		benchmarks: map[string]*memoDesign{},
	}
	for _, name := range registry.Names() {
		s.benchmarks[name] = &memoDesign{}
	}
	s.benchmarks[""] = s.benchmarks[BenchmarkP93791M]
	client := &http.Client{Transport: newFleetTransport()}
	s.fleet = newFleet(opts, s.metrics, client, logf)
	s.coord = newCoordinator(opts, s.fleet, client, s.metrics)
	s.fleet.ensureProbing()
	// Last: job recovery resumes persisted sweeps through the fleet and
	// coordinator built above.
	s.jobs = newJobManager(s, opts.JobDir, opts.JobRetention, logf)
	return s
}

// Engine returns the engine the server plans with.
func (s *Server) Engine() *core.Engine { return s.engine }

// Close stops the server's background work — the job runners (whose
// in-flight shards abort; completed checkpoints stay on disk as the
// next process's resume point), the fleet's probe loop, and the shared
// transport's idle connections. In-flight requests are unaffected (the
// HTTP server's own Shutdown drains those).
func (s *Server) Close() {
	s.jobs.close()
	s.fleet.close()
	s.coord.client.CloseIdleConnections()
}

// Handler returns the server's HTTP routes, each instrumented with the
// per-endpoint request and latency counters /metrics exposes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/plan", s.instrument("/v1/plan", serveJSON(s.Plan)))
	mux.Handle("POST /v1/batch", s.instrument("/v1/batch", serveJSON(s.Batch)))
	mux.Handle("POST /v1/sweep", s.instrument("/v1/sweep", serveJSON(s.Sweep)))
	mux.Handle("POST /v1/shard", s.instrument("/v1/shard", serveJSON(s.shard)))
	mux.Handle("POST /v1/sweeps", s.instrument("/v1/sweeps", s.handleJobSubmit))
	mux.Handle("GET /v1/sweeps/{id}", s.instrument("/v1/sweeps/{id}", s.handleJobStatus))
	mux.Handle("GET /v1/sweeps/{id}/result", s.instrument("/v1/sweeps/{id}/result", s.handleJobResult))
	mux.Handle("GET /v1/sweeps/{id}/events", s.instrument("/v1/sweeps/{id}/events", s.handleJobEvents))
	mux.Handle("GET /v1/designs", s.instrument("/v1/designs", s.handleDesigns))
	mux.Handle("GET /v1/workers", s.instrument("/v1/workers", s.handleWorkersGet))
	mux.Handle("POST /v1/workers", s.instrument("/v1/workers", serveJSON(s.updateWorkers)))
	mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	return mux
}

// handleHealthz answers the liveness probe with the worker's advertised
// capacity — its total CPU budget (the SplitWorkers pool) — which a
// coordinator's fleet probes read to weight shard assignment.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeResponse(w, &HealthResponse{OK: true, Capacity: s.capacity, MaxConcurrent: s.slots.Cap()})
}

// handleWorkersGet answers GET /v1/workers with the fleet's live
// membership and per-worker lifecycle state.
func (s *Server) handleWorkersGet(w http.ResponseWriter, r *http.Request) {
	writeResponse(w, &WorkersResponse{Workers: s.fleet.snapshot()})
}

// updateWorkers answers POST /v1/workers: it applies a membership
// change (add/remove worker base URLs) and returns the resulting fleet
// state.
func (s *Server) updateWorkers(_ context.Context, req WorkersUpdateRequest) (*WorkersResponse, error) {
	if len(req.Add) == 0 && len(req.Remove) == 0 {
		return nil, badRequestf("nothing to do: give add and/or remove worker URLs")
	}
	if err := s.fleet.update(req.Add, req.Remove); err != nil {
		return nil, err
	}
	return &WorkersResponse{Workers: s.fleet.snapshot()}, nil
}

// requestCtx derives the request's planning context: the client's
// timeout_ms if given, capped by — and defaulting to — the server's
// RequestTimeout.
func (s *Server) requestCtx(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.timeout
	if timeoutMS > 0 {
		if d := time.Duration(timeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return context.WithTimeout(parent, timeout)
}

// saturatedError reports a request that never got a worker-pool slot
// before its deadline; the handler maps it to 503.
type saturatedError struct{ cause error }

func (e saturatedError) Error() string {
	return fmt.Sprintf("service: worker pool saturated: %v", e.cause)
}

// Plan computes the response of POST /v1/plan for req — the exact code
// path the HTTP handler runs, exported so msoc-plan -json produces
// byte-identical output without a server.
func (s *Server) Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	return s.plan(ctx, req, nil, "")
}

// plan is Plan on req's design d and its hash as the caller resolved
// them, or nil and "" to resolve them here, after req's own fields
// validate (so a request reports the same error either way).
func (s *Server) plan(ctx context.Context, req PlanRequest, d *core.Design, hash string) (*PlanResponse, error) {
	if err := validateWidth(req.Width); err != nil {
		return nil, err
	}
	wt := 0.5
	if req.WT != nil {
		wt = *req.WT
	}
	weights, err := weightsFor(wt)
	if err != nil {
		return nil, err
	}
	if err := validateBackend(req.Backend); err != nil {
		return nil, err
	}
	if d == nil {
		if d, hash, err = s.resolve(req.Design, req.SOC, req.Benchmark); err != nil {
			return nil, err
		}
	}
	if err := validateDesignWidth(d, req.Width); err != nil {
		return nil, err
	}

	ctx, cancel := s.requestCtx(ctx, req.TimeoutMS)
	defer cancel()
	if err := s.slots.Acquire(ctx); err != nil {
		return nil, saturatedError{cause: err}
	}
	defer s.slots.Release()

	res, err := s.engine.PlanWith(ctx, d, req.Width, weights, core.PlanOptions{
		Exhaustive: req.Exhaustive,
		Bounded:    req.Bounded,
		Backend:    req.Backend,
		DesignHash: hash,
	})
	if err != nil {
		return nil, err
	}
	return &PlanResponse{DesignHash: hash, Width: req.Width, Weights: weights, Result: res}, nil
}

// sweepSpec is a validated sweep: the resolved design and hash, the
// normalized weight axis, and the grid geometry the coordinator's
// shard numbering derives from.
type sweepSpec struct {
	design  *core.Design
	hash    string
	widths  []int
	wts     []float64 // normalized WTs (defaulted when the request had none)
	weights []core.Weights
}

// cells is the dense grid size, weights-major: cell i is
// (widths[i%len(widths)], weights[i/len(widths)]).
func (sp *sweepSpec) cells() int { return len(sp.widths) * len(sp.weights) }

// validateSweep checks a sweep's axes, bounds, backend and design —
// shared by the in-process sweep, the coordinator, the worker shard
// endpoint and durable jobs, so all of them accept exactly the same
// grids.
func (s *Server) validateSweep(req SweepRequest) (*sweepSpec, error) {
	widths, wts := req.Widths, req.WTs
	if len(widths) == 0 {
		return nil, badRequestf("sweep needs at least one width")
	}
	for _, w := range widths {
		if err := validateWidth(w); err != nil {
			return nil, err
		}
	}
	if len(wts) == 0 {
		wts = []float64{0.5}
	}
	weights := make([]core.Weights, len(wts))
	for i, wt := range wts {
		w, err := weightsFor(wt)
		if err != nil {
			return nil, err
		}
		weights[i] = w
	}
	if cells := len(widths) * len(weights); cells > MaxSweepCells {
		return nil, badRequestf("sweep grid of %d cells exceeds the %d-cell bound", cells, MaxSweepCells)
	}
	if err := validateBackend(req.Backend); err != nil {
		return nil, err
	}
	d, hash, err := s.resolve(req.Design, req.SOC, req.Benchmark)
	if err != nil {
		return nil, err
	}
	if err := validateDesignWidth(d, widths...); err != nil {
		return nil, err
	}
	return &sweepSpec{design: d, hash: hash, widths: widths, wts: wts, weights: weights}, nil
}

// distributable reports whether the grid's cells are addressable by
// (width, weight) value — what the worker-side Select closure keys on —
// which requires both axes to be duplicate-free. A grid with duplicate
// axis values still sweeps fine in-process; the coordinator just keeps
// it local.
func (sp *sweepSpec) distributable() bool {
	ws := make(map[int]bool, len(sp.widths))
	for _, w := range sp.widths {
		if ws[w] {
			return false
		}
		ws[w] = true
	}
	ts := make(map[float64]bool, len(sp.wts))
	for _, wt := range sp.wts {
		if ts[wt] {
			return false
		}
		ts[wt] = true
	}
	return true
}

// roundRobin returns the item indices of shard `shard` in an `of`-way
// round-robin split of n items: shard, shard+of, shard+2·of, …. It is
// the one partition rule of distributed sweeps — the coordinator, the
// worker's /v1/shard endpoint and durable-job recovery all apply it to
// a sweep's weights-major (width, weights) cells — so a shard index
// names the same slice of work regardless of transport.
func roundRobin(n, shard, of int) ([]int, error) {
	if of < 1 || shard < 0 || shard >= of {
		return nil, fmt.Errorf("service: shard %d/%d out of range (want 0 <= shard < of)", shard, of)
	}
	idx := make([]int, 0, (n+of-1)/of)
	for i := shard; i < n; i += of {
		idx = append(idx, i)
	}
	return idx, nil
}

// Sweep computes the response of POST /v1/sweep for req; see Plan. On a
// coordinator (a non-empty fleet) cold sweeps are fanned out to the
// workers through runShards and merged byte-identically to the
// in-process path; warm-started sweeps — whose cross-width chaining is
// inherently sequential — and grids with duplicate axis values plan
// in-process, as one engine sweep under one pool slot plus the idle
// slots it borrows, one cell at a time (core.SweepOptions.Slots).
func (s *Server) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, error) {
	sp, err := s.validateSweep(req)
	if err != nil {
		return nil, err
	}

	ctx, cancel := s.requestCtx(ctx, req.TimeoutMS)
	defer cancel()
	if err := s.slots.Acquire(ctx); err != nil {
		return nil, saturatedError{cause: err}
	}
	defer s.slots.Release()

	if !req.WarmStart && sp.distributable() {
		if homes, ok := s.fleet.assign(sp.cells()); ok {
			parts := make([]*ShardResponse, len(homes))
			if err := s.runShards(ctx, sp, req, homes, parts, nil); err != nil {
				return nil, err
			}
			return mergeShards(sp, parts), nil
		}
		// The fleet is empty: sweep in-process.
	}
	points, err := s.engine.Sweep(ctx, sp.design, sp.widths, sp.weights, core.SweepOptions{
		Exhaustive: req.Exhaustive,
		Bounded:    req.Bounded,
		WarmStart:  req.WarmStart,
		Backend:    req.Backend,
		Slots:      s.slots,
		DesignHash: sp.hash,
	})
	if err != nil {
		return nil, err
	}
	return &SweepResponse{DesignHash: sp.hash, Points: points}, nil
}

// shard computes the response of POST /v1/shard for req: the shard's
// round-robin slice of the full (widths × wts) grid, solved cold
// through core.SweepOptions.Select so every returned point is
// bit-identical to the same cell of an unsharded sweep. Shards always
// solve cold, so warm_start is a 400.
func (s *Server) shard(ctx context.Context, req ShardRequest) (*ShardResponse, error) {
	if req.WarmStart {
		return nil, badRequestf("shards solve cold: warm_start chains widths sequentially and cannot be sharded")
	}
	sp, err := s.validateSweep(req.SweepRequest)
	if err != nil {
		return nil, err
	}
	if !sp.distributable() {
		return nil, badRequestf("shard grids must have duplicate-free width and wt axes")
	}
	idx, err := roundRobin(sp.cells(), req.Shard, req.Of)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	if len(idx) == 0 {
		return nil, badRequestf("shard %d/%d owns no cells of a %d-cell grid", req.Shard, req.Of, sp.cells())
	}
	type cellKey struct {
		width int
		time  float64
	}
	own := make(map[cellKey]bool, len(idx))
	for _, i := range idx {
		own[cellKey{sp.widths[i%len(sp.widths)], sp.weights[i/len(sp.widths)].Time}] = true
	}

	ctx, cancel := s.requestCtx(ctx, req.TimeoutMS)
	defer cancel()
	if err := s.slots.Acquire(ctx); err != nil {
		return nil, saturatedError{cause: err}
	}
	defer s.slots.Release()

	points, err := s.engine.Sweep(ctx, sp.design, sp.widths, sp.weights, core.SweepOptions{
		Exhaustive: req.Exhaustive,
		Bounded:    req.Bounded,
		Backend:    req.Backend,
		Slots:      s.slots,
		Select: func(w int, wt core.Weights) bool {
			return own[cellKey{w, wt.Time}]
		},
		DesignHash: sp.hash,
	})
	if err != nil {
		return nil, err
	}
	return &ShardResponse{DesignHash: sp.hash, Shard: req.Shard, Of: req.Of, Points: points}, nil
}

// Designs computes the response of GET /v1/designs.
func (s *Server) Designs() *DesignsResponse {
	return &DesignsResponse{
		Benchmarks: benchmarkInfos(),
		Designs:    s.engine.Designs(),
		Metrics:    s.engine.Metrics(),
	}
}

// handleMetrics renders the Prometheus text-format scrape surface:
// engine cache counters, worker-pool saturation, per-endpoint request
// counts and latencies, and (on a coordinator) the fleet's per-worker
// lifecycle gauges and shard/probe/transition counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, s.engine.Metrics(), s.fleet.snapshot(), s.jobs.stateCounts())
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	writeResponse(w, s.Designs())
}

// serveJSON adapts a JSON POST endpoint's call to a handler: decode the
// body, call, then write the error or the response.
func serveJSON[Req, Resp any](call func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decodeBody(w, r, &req) {
			return
		}
		resp, err := call(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeResponse(w, resp)
	}
}

// decodeBody parses a JSON request body under the size bound, writing
// the 400 itself (and returning false) on failure. The body is one JSON
// value: anything but whitespace after it is rejected too.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		writeStatus(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

func writeResponse(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := WriteJSON(w, v); err != nil {
		// Headers are gone; nothing to do but note it for the client.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// statusFor maps an error to its HTTP status: validation to 400, a
// failed distributed sweep to 502 (with per-worker detail), pool
// saturation to 503, deadline to 504, cancellation to 499 (client
// gone), anything else to 500. Batch items use the same mapping, so an
// item's status always equals the status the same request would get
// from POST /v1/plan.
func statusFor(err error) (status int, workers []WorkerFailure) {
	status = http.StatusInternalServerError
	var bad badRequestError
	var sat saturatedError
	var dist *distributedSweepError
	switch {
	case errors.As(err, &bad):
		status = http.StatusBadRequest
	case errors.As(err, &dist):
		status = http.StatusBadGateway
		workers = dist.failures
	case errors.As(err, &sat):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request (nginx convention)
	}
	return status, workers
}

// writeError maps an error to its HTTP status (see statusFor) and
// writes the JSON error body.
func writeError(w http.ResponseWriter, err error) {
	status, workers := statusFor(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = WriteJSON(w, ErrorResponse{Error: err.Error(), Workers: workers})
}

func writeStatus(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = WriteJSON(w, ErrorResponse{Error: msg})
}

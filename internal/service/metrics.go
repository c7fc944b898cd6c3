package service

// The /metrics scrape surface: a dependency-free Prometheus
// text-format (version 0.0.4) renderer over a small hand-rolled
// registry. The metric set is deliberately concrete — engine cache
// counters, worker-pool slot occupancy, per-endpoint request counts and
// latencies, per-worker shard outcomes — rather than a generic metrics
// framework; everything monotonic is a counter (the engine-lifetime
// totals core.EngineMetrics.ScheduleTotal exists for), everything that
// can shrink is a gauge. Series are rendered in sorted order so
// repeated scrapes of an idle server are byte-stable.

import (
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mixsoc/internal/core"
	"mixsoc/internal/tam"
)

// The per-worker shard outcome labels of msoc_worker_shards_total.
const (
	shardResultOK      = "ok"
	shardResultError   = "error"
	shardResultTimeout = "timeout"
)

// The submission outcome labels of msoc_job_submissions_total.
const (
	jobSubmitAccepted = "accepted"
	jobSubmitDeduped  = "deduped"
	jobSubmitResumed  = "resumed"
	jobSubmitRejected = "rejected"
)

// The shard event labels of msoc_job_shards_total.
const (
	jobShardCheckpointed = "checkpointed"
	jobShardRecovered    = "recovered"
	jobShardInvalid      = "invalid"
)

// The per-item outcome labels of msoc_batch_items_total.
const (
	batchItemOK      = "ok"
	batchItemDeduped = "deduped"
	batchItemError   = "error"
)

// durStat is a Prometheus summary without quantiles: total seconds and
// observation count.
type durStat struct {
	sum   float64
	count uint64
}

// epCode is one (endpoint, status code) request-counter series.
type epCode struct {
	endpoint string
	code     int
}

// workerResult is one (worker, outcome) shard-counter series.
type workerResult struct {
	worker string
	result string
}

// workerTransition is one (worker, to-state) transition-counter series.
type workerTransition struct {
	worker string
	to     string
}

// metricsRegistry accumulates the service-level counters /metrics
// renders; engine counters are scraped live from the Engine instead.
// Worker-keyed counters are never deleted — a worker removed from the
// fleet keeps its series, so scrape counters never rewind across
// membership churn.
type metricsRegistry struct {
	slots *core.Slots // the worker pool, read live at scrape time

	mu          sync.Mutex
	inFlight    int
	httpCount   map[epCode]uint64
	httpDur     map[string]*durStat
	shards      map[workerResult]uint64
	shardDur    map[string]*durStat
	transitions map[workerTransition]uint64
	probes      map[workerResult]uint64
	panics      uint64
	jobSubmits  map[string]uint64
	jobShards   map[string]uint64
	jobFinished map[string]*durStat // by terminal state
	recoveries  uint64
	batchItems  map[string]uint64
}

func newMetricsRegistry(slots *core.Slots) *metricsRegistry {
	return &metricsRegistry{
		slots:       slots,
		httpCount:   map[epCode]uint64{},
		httpDur:     map[string]*durStat{},
		shards:      map[workerResult]uint64{},
		shardDur:    map[string]*durStat{},
		transitions: map[workerTransition]uint64{},
		probes:      map[workerResult]uint64{},
		jobSubmits:  map[string]uint64{},
		jobShards:   map[string]uint64{},
		jobFinished: map[string]*durStat{},
		batchItems:  map[string]uint64{},
	}
}

// countBatch records one POST /v1/batch call's per-item outcomes: items
// answered 200 (shared executions included), items served by another
// item's execution, and items that failed.
func (m *metricsRegistry) countBatch(ok, deduped, failed int) {
	m.mu.Lock()
	m.batchItems[batchItemOK] += uint64(ok)
	m.batchItems[batchItemDeduped] += uint64(deduped)
	m.batchItems[batchItemError] += uint64(failed)
	m.mu.Unlock()
}

// observePanic counts one handler panic recovered into a 500.
func (m *metricsRegistry) observePanic() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// observeJobSubmission counts one POST /v1/sweeps outcome (accepted,
// deduped, resumed, rejected).
func (m *metricsRegistry) observeJobSubmission(result string) {
	m.mu.Lock()
	m.jobSubmits[result]++
	m.mu.Unlock()
}

// observeJobShard counts one job shard event: a partial checkpointed
// to disk, recovered from disk, or found invalid at recovery.
func (m *metricsRegistry) observeJobShard(event string) {
	m.mu.Lock()
	m.jobShards[event]++
	m.mu.Unlock()
}

// observeJobRecovery counts one job restored from the job directory at
// boot.
func (m *metricsRegistry) observeJobRecovery() {
	m.mu.Lock()
	m.recoveries++
	m.mu.Unlock()
}

// observeJobFinished records one job reaching a terminal state with
// its wall time in this process (a recovered job counts only the time
// after the restart).
func (m *metricsRegistry) observeJobFinished(state string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.jobFinished[state]
	if s == nil {
		s = &durStat{}
		m.jobFinished[state] = s
	}
	s.sum += d.Seconds()
	s.count++
}

// observeTransition counts one fleet state transition (admission counts
// as a transition to healthy).
func (m *metricsRegistry) observeTransition(worker, to string) {
	m.mu.Lock()
	m.transitions[workerTransition{worker, to}]++
	m.mu.Unlock()
}

// observeProbe counts one health-probe outcome against its worker.
func (m *metricsRegistry) observeProbe(worker string, ok bool) {
	result := shardResultError
	if ok {
		result = shardResultOK
	}
	m.mu.Lock()
	m.probes[workerResult{worker, result}]++
	m.mu.Unlock()
}

// observeHTTP records one finished request against its endpoint and
// status code.
func (m *metricsRegistry) observeHTTP(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.httpCount[epCode{endpoint, code}]++
	s := m.httpDur[endpoint]
	if s == nil {
		s = &durStat{}
		m.httpDur[endpoint] = s
	}
	s.sum += d.Seconds()
	s.count++
}

// observeShard records one coordinator shard attempt against its worker
// and outcome.
func (m *metricsRegistry) observeShard(worker, result string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shards[workerResult{worker, result}]++
	s := m.shardDur[worker]
	if s == nil {
		s = &durStat{}
		m.shardDur[worker] = s
	}
	s.sum += d.Seconds()
	s.count++
}

// addInFlight moves the in-flight request gauge.
func (m *metricsRegistry) addInFlight(delta int) {
	m.mu.Lock()
	m.inFlight += delta
	m.mu.Unlock()
}

// instrument wraps a handler with the request count, latency and
// in-flight bookkeeping for one endpoint label, plus panic recovery: a
// panicking handler becomes a structured 500 ErrorResponse (when
// nothing was written yet) and an msoc_panics_total increment instead
// of a torn connection. http.ErrAbortHandler — the deliberate
// abort-this-connection sentinel — is re-raised untouched.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: 200}
		s.metrics.addInFlight(1)
		defer func() {
			s.metrics.addInFlight(-1)
			s.metrics.observeHTTP(endpoint, rec.code, time.Since(start))
		}()
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.metrics.observePanic()
			s.logf("panic serving %s: %v\n%s", endpoint, v, debug.Stack())
			if !rec.wrote {
				writeStatus(rec, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
			}
		}()
		h(rec, r)
	})
}

// statusRecorder captures the status code a handler wrote (200 when it
// never called WriteHeader explicitly) and whether anything reached
// the wire — the panic middleware only writes its 500 onto a pristine
// response.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

// WriteHeader records the code and forwards it.
func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

// Write forwards the body bytes, noting that the response has begun
// (an implicit 200 when WriteHeader was never called).
func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// Flush forwards a streaming handler's flush to the underlying writer
// when it supports one — the NDJSON job-event stream depends on this
// passing through the instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// render writes the whole scrape page. fleet is the coordinator's live
// membership snapshot (empty on a standalone server): every member gets
// a shards-total series even before its first attempt — scrapers see
// the topology, not just the traffic — plus per-worker state and
// capacity gauges. jobs is the job manager's live state census. Worker-
// keyed counters outlive membership: a removed or evicted worker's
// series keep their values, so counters never rewind.
func (m *metricsRegistry) render(w io.Writer, em core.EngineMetrics, fleet []WorkerInfo, jobs map[string]int) {
	p := &textfmt{w: w}

	p.family("msoc_engine_designs", "Live design cache sessions in the planning engine.", "gauge")
	p.value("msoc_engine_designs", nil, float64(em.Designs))
	p.family("msoc_engine_schedules", "Cached TAM schedules across live sessions.", "gauge")
	p.value("msoc_engine_schedules", nil, float64(em.Schedules))
	p.family("msoc_engine_plans_total", "Planning calls served by the engine.", "counter")
	p.value("msoc_engine_plans_total", nil, float64(em.Plans))
	p.family("msoc_engine_design_sessions_total", "Design cache session lookups by outcome (hit reused a session, miss created one).", "counter")
	p.value("msoc_engine_design_sessions_total", labels{"result", "hit"}, float64(em.DesignHits))
	p.value("msoc_engine_design_sessions_total", labels{"result", "miss"}, float64(em.DesignMisses))
	p.family("msoc_engine_design_evictions_total", "Design cache sessions dropped by the LRU bound.", "counter")
	p.value("msoc_engine_design_evictions_total", nil, float64(em.Evictions))
	p.family("msoc_engine_schedule_cache_total", "Engine-lifetime TAM schedule cache lookups by outcome (includes evicted caches; a miss ran the TAM optimizer).", "counter")
	p.value("msoc_engine_schedule_cache_total", labels{"result", "hit"}, float64(em.ScheduleTotal.Hits))
	p.value("msoc_engine_schedule_cache_total", labels{"result", "miss"}, float64(em.ScheduleTotal.Misses))
	// Backend families enumerate the registry in fixed order so every
	// (backend, result) series is present at zero from the first scrape.
	p.family("msoc_backend_packs_total", "TAM packs by packing backend and outcome (requests without a backend pack with occupancy; tournament packs count once per participating backend).", "counter")
	for _, backend := range tam.Backends() {
		st := em.BackendPacks[backend]
		p.value("msoc_backend_packs_total", labels{"backend", backend, "result", "error"}, float64(st.Errors))
		p.value("msoc_backend_packs_total", labels{"backend", backend, "result", "ok"}, float64(st.OK))
	}
	p.family("msoc_backend_tournament_wins_total", "Backend tournament packs won, by winning backend (smallest makespan; ties go to the earlier backend in registry order).", "counter")
	for _, backend := range tam.Backends() {
		p.value("msoc_backend_tournament_wins_total", labels{"backend", backend}, float64(em.TournamentWins[backend]))
	}
	p.family("msoc_module_cache_stairs_total", "Cross-design module staircase store lookups by outcome (a miss designed a wrapper staircase, a hit reused one — including across near-duplicate designs).", "counter")
	p.value("msoc_module_cache_stairs_total", labels{"result", "hit"}, float64(em.ModuleStairs.Hits))
	p.value("msoc_module_cache_stairs_total", labels{"result", "miss"}, float64(em.ModuleStairs.Misses))
	p.family("msoc_module_cache_stair_entries", "Distinct module content hashes held by the cross-design staircase store.", "gauge")
	p.value("msoc_module_cache_stair_entries", nil, float64(em.ModuleStairEntries))
	p.family("msoc_module_cache_digital_jobs_total", "Cross-design digital TAM-job cache lookups by outcome (a miss built a job slice, a hit reused one).", "counter")
	p.value("msoc_module_cache_digital_jobs_total", labels{"result", "hit"}, float64(em.DigitalJobs.Hits))
	p.value("msoc_module_cache_digital_jobs_total", labels{"result", "miss"}, float64(em.DigitalJobs.Misses))
	p.family("msoc_module_cache_digital_job_entries", "Cached (digital SOC, width) job slices in the cross-design digital-jobs cache.", "gauge")
	p.value("msoc_module_cache_digital_job_entries", nil, float64(em.DigitalJobEntries))

	pool := m.slots.Stats()
	p.family("msoc_pool_capacity", "Planning worker-pool slots (the -max-concurrent bound).", "gauge")
	p.value("msoc_pool_capacity", nil, float64(m.slots.Cap()))
	p.family("msoc_pool_slots", "Planning worker-pool slots held, by holder: request (a plan, sweep or shard holding its own slot) or borrowed (an idle slot a sweep runs one grid cell on).", "gauge")
	p.value("msoc_pool_slots", labels{"holder", "borrowed"}, float64(pool.Borrowed))
	p.value("msoc_pool_slots", labels{"holder", "request"}, float64(pool.Request))
	p.family("msoc_pool_borrows_total", "Idle worker-pool slots borrowed by sweeps, one grid cell per borrow.", "counter")
	p.value("msoc_pool_borrows_total", nil, float64(pool.Borrows))

	m.mu.Lock()
	defer m.mu.Unlock()

	p.family("msoc_pool_in_flight", "HTTP requests currently being served, on every endpoint (the /metrics scrape, /healthz probes and /v1/batch calls included); pool saturation is msoc_pool_slots{holder=\"request\"} over msoc_pool_capacity.", "gauge")
	p.value("msoc_pool_in_flight", nil, float64(m.inFlight))

	p.family("msoc_http_requests_total", "HTTP requests served, by endpoint and status code.", "counter")
	codes := make([]epCode, 0, len(m.httpCount))
	for k := range m.httpCount {
		codes = append(codes, k)
	}
	sort.Slice(codes, func(a, b int) bool {
		if codes[a].endpoint != codes[b].endpoint {
			return codes[a].endpoint < codes[b].endpoint
		}
		return codes[a].code < codes[b].code
	})
	for _, k := range codes {
		p.value("msoc_http_requests_total",
			labels{"endpoint", k.endpoint, "code", strconv.Itoa(k.code)}, float64(m.httpCount[k]))
	}

	p.family("msoc_http_request_duration_seconds", "Wall time per request, by endpoint.", "summary")
	for _, ep := range sortedKeys(m.httpDur) {
		s := m.httpDur[ep]
		p.value("msoc_http_request_duration_seconds_sum", labels{"endpoint", ep}, s.sum)
		p.value("msoc_http_request_duration_seconds_count", labels{"endpoint", ep}, float64(s.count))
	}

	p.family("msoc_batch_items_total", "POST /v1/batch items, by outcome (ok, deduped onto another item's execution, error).", "counter")
	for _, result := range []string{batchItemDeduped, batchItemError, batchItemOK} {
		p.value("msoc_batch_items_total", labels{"result", result}, float64(m.batchItems[result]))
	}

	p.family("msoc_panics_total", "Handler panics recovered into structured 500 responses.", "counter")
	p.value("msoc_panics_total", nil, float64(m.panics))

	// Durable job families render with fixed label enumerations so the
	// scrape page stays byte-stable while idle.
	p.family("msoc_jobs", "Durable sweep jobs held by this server, by lifecycle state.", "gauge")
	for _, state := range []string{JobStateDone, JobStateFailed, JobStateRunning} {
		p.value("msoc_jobs", labels{"state", state}, float64(jobs[state]))
	}
	p.family("msoc_job_submissions_total", "POST /v1/sweeps submissions, by outcome (accepted, deduped, resumed, rejected).", "counter")
	for _, result := range []string{jobSubmitAccepted, jobSubmitDeduped, jobSubmitRejected, jobSubmitResumed} {
		p.value("msoc_job_submissions_total", labels{"result", result}, float64(m.jobSubmits[result]))
	}
	p.family("msoc_job_shards_total", "Durable job shard events: partials checkpointed to the job dir, recovered from it, or found invalid at recovery.", "counter")
	for _, event := range []string{jobShardCheckpointed, jobShardInvalid, jobShardRecovered} {
		p.value("msoc_job_shards_total", labels{"event", event}, float64(m.jobShards[event]))
	}
	p.family("msoc_job_recoveries_total", "Jobs restored from the job directory after a restart.", "counter")
	p.value("msoc_job_recoveries_total", nil, float64(m.recoveries))
	p.family("msoc_job_duration_seconds", "Wall time per finished job in this process, by terminal state.", "summary")
	for _, state := range []string{JobStateDone, JobStateFailed} {
		s := m.jobFinished[state]
		if s == nil {
			s = &durStat{}
		}
		p.value("msoc_job_duration_seconds_sum", labels{"state", state}, s.sum)
		p.value("msoc_job_duration_seconds_count", labels{"state", state}, float64(s.count))
	}

	if len(fleet) == 0 && len(m.shards) == 0 && len(m.transitions) == 0 {
		return
	}

	// Live fleet gauges: membership counts per state, then per-worker
	// state and capacity. Only current members appear here — removal
	// drops the gauges while the counters below persist.
	p.family("msoc_fleet_workers", "Fleet members by lifecycle state.", "gauge")
	byState := map[string]int{}
	for _, wi := range fleet {
		byState[wi.State]++
	}
	for _, state := range []string{WorkerEvicted, WorkerHealthy, WorkerSuspect} {
		p.value("msoc_fleet_workers", labels{"state", state}, float64(byState[state]))
	}
	sortedFleet := append([]WorkerInfo(nil), fleet...)
	sort.Slice(sortedFleet, func(a, b int) bool { return sortedFleet[a].URL < sortedFleet[b].URL })
	p.family("msoc_worker_state", "Fleet member lifecycle state (1 healthy, 2 suspect, 3 evicted).", "gauge")
	for _, wi := range sortedFleet {
		p.value("msoc_worker_state", labels{"worker", wi.URL}, float64(stateRank(wi.State)))
	}
	p.family("msoc_worker_capacity", "Fleet member's advertised CPU budget (weights shard assignment).", "gauge")
	for _, wi := range sortedFleet {
		p.value("msoc_worker_capacity", labels{"worker", wi.URL}, float64(wi.Capacity))
	}

	p.family("msoc_worker_shards_total", "Coordinator shard attempts, by worker and outcome (ok, error, timeout).", "counter")
	seen := map[workerResult]bool{}
	series := make([]workerResult, 0, len(m.shards)+len(fleet))
	for k := range m.shards {
		series = append(series, k)
		seen[k] = true
	}
	for _, wi := range fleet {
		if k := (workerResult{wi.URL, shardResultOK}); !seen[k] {
			series = append(series, k)
		}
	}
	sortWorkerResults(series)
	for _, k := range series {
		p.value("msoc_worker_shards_total",
			labels{"result", k.result, "worker", k.worker}, float64(m.shards[k]))
	}

	p.family("msoc_worker_shard_duration_seconds", "Wall time per shard attempt, by worker.", "summary")
	for _, worker := range sortedKeys(m.shardDur) {
		s := m.shardDur[worker]
		p.value("msoc_worker_shard_duration_seconds_sum", labels{"worker", worker}, s.sum)
		p.value("msoc_worker_shard_duration_seconds_count", labels{"worker", worker}, float64(s.count))
	}

	// Lifecycle counters: monotonic across eviction, re-admission and
	// even removal (removed workers keep their accumulated series).
	p.family("msoc_worker_probes_total", "Fleet health probes, by worker and outcome (ok, error).", "counter")
	probes := make([]workerResult, 0, len(m.probes))
	for k := range m.probes {
		probes = append(probes, k)
	}
	sortWorkerResults(probes)
	for _, k := range probes {
		p.value("msoc_worker_probes_total",
			labels{"result", k.result, "worker", k.worker}, float64(m.probes[k]))
	}
	p.family("msoc_worker_transitions_total", "Fleet lifecycle transitions, by worker and target state (admission counts as a transition to healthy).", "counter")
	trans := make([]workerTransition, 0, len(m.transitions))
	for k := range m.transitions {
		trans = append(trans, k)
	}
	sort.Slice(trans, func(a, b int) bool {
		if trans[a].worker != trans[b].worker {
			return trans[a].worker < trans[b].worker
		}
		return trans[a].to < trans[b].to
	})
	for _, k := range trans {
		p.value("msoc_worker_transitions_total",
			labels{"to", k.to, "worker", k.worker}, float64(m.transitions[k]))
	}
}

// sortWorkerResults orders (worker, result) series for byte-stable
// scrapes.
func sortWorkerResults(series []workerResult) {
	sort.Slice(series, func(a, b int) bool {
		if series[a].worker != series[b].worker {
			return series[a].worker < series[b].worker
		}
		return series[a].result < series[b].result
	})
}

// labels is a flat key, value, key, value, … list; flat because every
// call site has literal pairs and a slice keeps them in declared order.
type labels []string

// textfmt emits the Prometheus text exposition format.
type textfmt struct {
	w io.Writer
}

// family writes the # HELP and # TYPE header of one metric family.
func (p *textfmt) family(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// value writes one sample line.
func (p *textfmt) value(name string, ls labels, v float64) {
	if len(ls) == 0 {
		fmt.Fprintf(p.w, "%s %s\n", name, formatValue(v))
		return
	}
	var b strings.Builder
	for i := 0; i+1 < len(ls); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		// Go's %q escaping of backslash, quote and newline is exactly
		// the text-format label escaping.
		fmt.Fprintf(&b, "%s=%q", ls[i], ls[i+1])
	}
	fmt.Fprintf(p.w, "%s{%s} %s\n", name, b.String(), formatValue(v))
}

// formatValue renders a sample value the way Prometheus expects:
// shortest float form, integral counters without an exponent.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sortedKeys returns the map's keys in sorted order, for byte-stable
// scrape pages.
func sortedKeys[V any](m map[string]*V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

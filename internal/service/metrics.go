package service

// The /metrics scrape surface: a dependency-free Prometheus
// text-format (version 0.0.4) renderer over a small hand-rolled
// registry. The metric set is deliberately concrete — engine cache
// counters, worker-pool slot occupancy, per-endpoint request counts and
// latencies, per-worker shard outcomes — rather than a generic metrics
// framework; everything monotonic is a counter (the engine-lifetime
// totals core.EngineMetrics.ScheduleTotal exists for), everything that
// can shrink is a gauge. What the service counts itself lives in one
// labelled family type; engine, pool, job and fleet values are read at
// scrape time. Series render in sorted order, byte-stable while idle.

import (
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mixsoc/internal/core"
	"mixsoc/internal/tam"
)

// The per-worker outcome labels of msoc_worker_shards_total (all three)
// and msoc_worker_probes_total (ok, error).
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

// sample is one series: a running sum and an observation count. A
// counter renders the sum, a summary its _sum and _count.
type sample struct {
	sum   float64
	count uint64
}

// pair keys a two-label series by its label values in rendered order;
// b is typed so a status code counts without building a string.
type pair[B comparable] struct {
	a string
	b B
}

// family is one labelled metric family the service counts into: its
// # HELP/# TYPE header, its label names and its series by key (a string
// for one label or none, a pair for two).
type family[K comparable] struct {
	mu              *sync.Mutex // the registry's: add takes it, render holds it across write
	name, typ, help string
	names           []string // label names, in rendered order
	series          map[K]sample
}

// newFamily builds a family whose seed keys render at zero before
// their first observation, so fixed label enumerations are on the page
// from the first scrape.
func newFamily[K comparable](mu *sync.Mutex, name, typ, help string, names []string, seed ...K) *family[K] {
	f := &family[K]{mu: mu, name: name, typ: typ, help: help, names: names, series: map[K]sample{}}
	for _, k := range seed {
		f.series[k] = sample{}
	}
	return f
}

// add adds v to k's series and counts one observation.
func (f *family[K]) add(k K, v float64) {
	f.mu.Lock()
	s := f.series[k]
	s.sum += v
	s.count++
	f.series[k] = s
	f.mu.Unlock()
}

// labels renders k's label pairs.
func (f *family[K]) labels(k K) labels {
	switch k := any(k).(type) {
	case string:
		if len(f.names) == 1 {
			return labels{f.names[0], k}
		}
	case pair[string]:
		return labels{f.names[0], k.a, f.names[1], k.b}
	case pair[int]:
		return labels{f.names[0], k.a, f.names[1], strconv.Itoa(k.b)}
	}
	return nil
}

// write emits the family's header and its series sorted by label
// values, plus a zero series for each key in zero never observed.
func (f *family[K]) write(p *textfmt, zero ...K) {
	p.family(f.name, f.help, f.typ)
	type row struct {
		ls labels
		s  sample
	}
	rows := make([]row, 0, len(f.series)+len(zero))
	for _, k := range zero {
		if _, ok := f.series[k]; !ok {
			rows = append(rows, row{f.labels(k), sample{}})
		}
	}
	for k, s := range f.series {
		rows = append(rows, row{f.labels(k), s})
	}
	sort.Slice(rows, func(a, b int) bool { return slices.Compare(rows[a].ls, rows[b].ls) < 0 })
	for _, r := range rows {
		if f.typ != "summary" {
			p.value(f.name, r.ls, r.s.sum)
			continue
		}
		p.value(f.name+"_sum", r.ls, r.s.sum)
		p.value(f.name+"_count", r.ls, float64(r.s.count))
	}
}

// metricsRegistry accumulates the service-level families /metrics
// renders; engine counters are scraped live from the Engine instead.
// Worker-keyed series are never deleted — a worker removed from the
// fleet keeps its series, so scrape counters never rewind across
// membership churn.
type metricsRegistry struct {
	slots *core.Slots // the worker pool, read live at scrape time

	mu          sync.Mutex
	inFlight    int
	httpCount   *family[pair[int]]
	httpDur     *family[string]
	batchItems  *family[string]
	panics      *family[string]
	jobSubmits  *family[string]
	jobShards   *family[string]
	recoveries  *family[string]
	jobDur      *family[string] // by terminal state
	shards      *family[pair[string]]
	shardDur    *family[string]
	probes      *family[pair[string]]
	transitions *family[pair[string]]
}

func newMetricsRegistry(slots *core.Slots) *metricsRegistry {
	m := &metricsRegistry{slots: slots}
	mu, result, byWorker := &m.mu, []string{"result"}, []string{"result", "worker"}
	m.httpCount = newFamily[pair[int]](mu, "msoc_http_requests_total", "counter",
		"HTTP requests served, by endpoint and status code.", []string{"endpoint", "code"})
	m.httpDur = newFamily[string](mu, "msoc_http_request_duration_seconds", "summary",
		"Wall time per request, by endpoint.", []string{"endpoint"})
	m.batchItems = newFamily(mu, "msoc_batch_items_total", "counter",
		"POST /v1/batch items, by outcome (ok, deduped onto another item's execution, error).",
		result, batchItemDeduped, batchItemError, batchItemOK)
	m.panics = newFamily(mu, "msoc_panics_total", "counter",
		"Handler panics recovered into structured 500 responses.", nil, "")
	m.jobSubmits = newFamily(mu, "msoc_job_submissions_total", "counter",
		"POST /v1/sweeps submissions, by outcome (accepted, deduped, resumed, rejected).",
		result, jobSubmitAccepted, jobSubmitDeduped, jobSubmitRejected, jobSubmitResumed)
	m.jobShards = newFamily(mu, "msoc_job_shards_total", "counter",
		"Durable job shard events: partials checkpointed to the job dir, recovered from it, or found invalid at recovery.",
		[]string{"event"}, jobShardCheckpointed, jobShardInvalid, jobShardRecovered)
	m.recoveries = newFamily(mu, "msoc_job_recoveries_total", "counter",
		"Jobs restored from the job directory after a restart.", nil, "")
	m.jobDur = newFamily(mu, "msoc_job_duration_seconds", "summary",
		"Wall time per finished job in this process, by terminal state.",
		[]string{"state"}, JobStateDone, JobStateFailed)
	m.shards = newFamily[pair[string]](mu, "msoc_worker_shards_total", "counter",
		"Coordinator shard attempts, by worker and outcome (ok, error, timeout).", byWorker)
	m.shardDur = newFamily[string](mu, "msoc_worker_shard_duration_seconds", "summary",
		"Wall time per shard attempt, by worker.", []string{"worker"})
	m.probes = newFamily[pair[string]](mu, "msoc_worker_probes_total", "counter",
		"Fleet health probes, by worker and outcome (ok, error).", byWorker)
	m.transitions = newFamily[pair[string]](mu, "msoc_worker_transitions_total", "counter",
		"Fleet lifecycle transitions, by worker and target state (admission counts as a transition to healthy).",
		[]string{"to", "worker"})
	return m
}

// observeHTTP records one finished request against its endpoint and
// status code.
func (m *metricsRegistry) observeHTTP(endpoint string, code int, d time.Duration) {
	m.httpCount.add(pair[int]{endpoint, code}, 1)
	m.httpDur.add(endpoint, d.Seconds())
}

// observeShard records one coordinator shard attempt against its worker
// and outcome.
func (m *metricsRegistry) observeShard(worker, result string, d time.Duration) {
	m.shards.add(pair[string]{result, worker}, 1)
	m.shardDur.add(worker, d.Seconds())
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
			s.metrics.panics.add("", 1)
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
// membership snapshot (empty on a standalone server): every current
// member gets an ok shards-total series even before its first attempt —
// scrapers see the topology, not just the traffic — plus per-worker
// state and capacity gauges. jobs is the job manager's live state
// census. Worker-keyed counters outlive membership: a removed or
// evicted worker's series keep their values, so counters never rewind.
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
	m.httpCount.write(p)
	m.httpDur.write(p)
	m.batchItems.write(p)
	m.panics.write(p)

	p.family("msoc_jobs", "Durable sweep jobs held by this server, by lifecycle state.", "gauge")
	for _, state := range []string{JobStateDone, JobStateFailed, JobStateRunning} {
		p.value("msoc_jobs", labels{"state", state}, float64(jobs[state]))
	}
	m.jobSubmits.write(p)
	m.jobShards.write(p)
	m.recoveries.write(p)
	m.jobDur.write(p)

	if len(fleet) == 0 && len(m.shards.series) == 0 && len(m.transitions.series) == 0 {
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

	// Shard, probe and transition counters: monotonic across eviction,
	// re-admission and even removal.
	members := make([]pair[string], len(fleet))
	for i, wi := range fleet {
		members[i] = pair[string]{shardResultOK, wi.URL}
	}
	m.shards.write(p, members...)
	m.shardDur.write(p)
	m.probes.write(p)
	m.transitions.write(p)
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

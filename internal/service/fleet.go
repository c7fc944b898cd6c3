package service

// Worker fleet lifecycle. A coordinator no longer treats its worker
// list as a static fact: every worker lives in a small state machine —
//
//	healthy ──failure──▶ suspect ──threshold──▶ evicted
//	   ▲                    │                      │
//	   └────── success ─────┘◀──── re-admission ───┘
//
// — driven by two evidence streams: periodic background probes of each
// worker's GET /healthz (which also report the worker's advertised
// planning capacity), and the coordinator's own shard outcomes, so a
// worker that times out a shard mid-sweep becomes suspect fleet-wide
// rather than just for that shard. Evicted workers are re-probed on an
// exponential backoff and re-admitted on the first successful probe.
//
// Membership is dynamic: workers arrive from the static -worker-urls
// flag, from a watched worker file that is re-read whenever it changes
// (file-sourced workers not in the new file are dropped), and from
// POST /v1/workers at runtime. Every transition is logged and counted
// (msoc_worker_transitions_total / msoc_worker_state in /metrics).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"
)

// Worker lifecycle states as reported by GET /v1/workers and the
// msoc_worker_state gauge.
const (
	// WorkerHealthy marks a worker eligible for shard assignment.
	WorkerHealthy = "healthy"
	// WorkerSuspect marks a worker with recent failures, still below the
	// eviction threshold; it receives no new assignments while any
	// healthy worker exists, but keeps being probed every interval.
	WorkerSuspect = "suspect"
	// WorkerEvicted marks a worker past the failure threshold; it is
	// re-probed on an exponential backoff and re-admitted (back to
	// healthy) on the first success.
	WorkerEvicted = "evicted"
)

// Worker membership sources as reported by GET /v1/workers.
const (
	// WorkerSourceStatic marks a worker from Options.WorkerURLs (the
	// -worker-urls flag).
	WorkerSourceStatic = "static"
	// WorkerSourceFile marks a worker from the watched Options.WorkerFile;
	// only file-sourced workers are removed when the file drops them.
	WorkerSourceFile = "file"
	// WorkerSourceAPI marks a worker added through POST /v1/workers.
	WorkerSourceAPI = "api"
)

// stateRank orders states for assignment preference and gives the
// msoc_worker_state gauge its value: 1 healthy, 2 suspect, 3 evicted.
func stateRank(state string) int {
	switch state {
	case WorkerHealthy:
		return 1
	case WorkerSuspect:
		return 2
	default:
		return 3
	}
}

// readmitBackoffCap bounds the evicted re-probe backoff at this many
// doublings of Options.ReadmitBackoff.
const readmitBackoffCap = 8

// fleetWorker is one worker's lifecycle record; all fields are guarded
// by the owning fleet's mutex.
type fleetWorker struct {
	url      string
	source   string
	state    string
	capacity int // advertised SplitWorkers budget; 1 until a probe reports
	failures int // consecutive failures (probe or shard) since last success
	lastErr  string
	lastOK   time.Time     // last successful probe or shard
	next     time.Time     // evicted only: earliest next re-admission probe
	backoff  time.Duration // evicted only: current re-probe backoff
}

// fleet owns the coordinator's worker membership and lifecycle; it is
// safe for concurrent use by the probe loop, the coordinator's shard
// fan-out, and the /v1/workers handlers.
type fleet struct {
	interval  time.Duration // probe period (and worker-file poll period)
	timeout   time.Duration // per-probe deadline
	threshold int           // consecutive failures before eviction
	readmit   time.Duration // initial evicted re-probe backoff
	file      string        // watched worker file ("" = none)

	client  *http.Client
	metrics *metricsRegistry
	logf    func(format string, args ...any)
	now     func() time.Time

	mu       sync.Mutex
	workers  map[string]*fleetWorker
	order    []string // insertion order, for deterministic assignment
	fileSig  string   // last worker-file content signature
	probing  bool     // probe loop started
	stopped  bool
	stop     chan struct{}
	loopDone chan struct{}
}

// newFleet builds the fleet from the options' static worker list and
// worker file; it does not start probing (ensureProbing does, lazily,
// once the fleet is non-empty).
func newFleet(opts Options, m *metricsRegistry, client *http.Client, logf func(string, ...any)) *fleet {
	f := &fleet{
		interval:  opts.ProbeInterval,
		timeout:   opts.ProbeTimeout,
		threshold: opts.ProbeFailureThreshold,
		readmit:   opts.ReadmitBackoff,
		file:      opts.WorkerFile,
		client:    client,
		metrics:   m,
		logf:      logf,
		now:       time.Now,
		workers:   map[string]*fleetWorker{},
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
	}
	if f.interval <= 0 {
		f.interval = 5 * time.Second
	}
	if f.timeout <= 0 {
		f.timeout = 2 * time.Second
	}
	if f.threshold < 1 {
		f.threshold = 3
	}
	if f.readmit <= 0 {
		f.readmit = 15 * time.Second
	}
	f.mu.Lock()
	for _, raw := range opts.WorkerURLs {
		u, err := parseWorkerURL(raw)
		if err != nil {
			f.logf("fleet: static worker list: skipping %v", err)
			continue
		}
		f.addLocked(u, WorkerSourceStatic)
	}
	f.mu.Unlock()
	if f.file != "" {
		f.syncFile()
	}
	return f
}

// parseWorkerURL canonicalizes a worker base URL (trimmed, no trailing
// slash) and rejects one that cannot be probed: it must be an absolute
// http(s) URL with a host. Every membership source goes through it.
func parseWorkerURL(raw string) (string, error) {
	u := strings.TrimRight(strings.TrimSpace(raw), "/")
	parsed, err := url.Parse(u)
	if err != nil {
		return "", badRequestf("bad worker url %q: %v", u, err)
	}
	if (parsed.Scheme != "http" && parsed.Scheme != "https") || parsed.Host == "" {
		return "", badRequestf("bad worker url %q: need an absolute http(s) URL with a host", u)
	}
	return u, nil
}

// addLocked registers a worker (idempotently) as healthy; callers hold
// f.mu. It reports whether the worker was new.
func (f *fleet) addLocked(url, source string) bool {
	if _, ok := f.workers[url]; ok {
		return false
	}
	f.workers[url] = &fleetWorker{url: url, source: source, state: WorkerHealthy, capacity: 1}
	f.order = append(f.order, url)
	f.metrics.transitions.add(pair[string]{WorkerHealthy, url}, 1)
	f.logf("fleet: worker %s admitted (source=%s)", url, source)
	return true
}

// removeLocked drops a worker from the membership; callers hold f.mu.
// Its counters in /metrics persist — only live-state gauges disappear.
func (f *fleet) removeLocked(url, why string) bool {
	if _, ok := f.workers[url]; !ok {
		return false
	}
	delete(f.workers, url)
	for i, u := range f.order {
		if u == url {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	f.logf("fleet: worker %s removed (%s)", url, why)
	return true
}

// update applies a membership change (from POST /v1/workers): adds
// first, then removals. Added URLs must validate; duplicates and
// unknown removals are no-ops.
func (f *fleet) update(add, remove []string) error {
	norm := make([]string, 0, len(add))
	for _, raw := range add {
		u, err := parseWorkerURL(raw)
		if err != nil {
			return err
		}
		norm = append(norm, u)
	}
	f.mu.Lock()
	for _, u := range norm {
		f.addLocked(u, WorkerSourceAPI)
	}
	for _, raw := range remove {
		if u, err := parseWorkerURL(raw); err == nil {
			f.removeLocked(u, "removed via /v1/workers")
		}
	}
	f.mu.Unlock()
	f.ensureProbing()
	return nil
}

// hasWorkers reports whether any worker is registered at all.
func (f *fleet) hasWorkers() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.order) > 0
}

// snapshot returns every worker's live state in insertion order — the
// body of GET /v1/workers and the source of the /metrics fleet gauges.
func (f *fleet) snapshot() []WorkerInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerInfo, 0, len(f.order))
	for _, u := range f.order {
		w := f.workers[u]
		info := WorkerInfo{
			URL:                 w.url,
			State:               w.state,
			Source:              w.source,
			Capacity:            w.capacity,
			ConsecutiveFailures: w.failures,
			LastError:           w.lastErr,
		}
		if !w.lastOK.IsZero() {
			info.LastOK = w.lastOK.UTC().Format(time.RFC3339Nano)
		}
		out = append(out, info)
	}
	return out
}

// assign partitions a sweep's cells into shards homed on the currently
// assignable workers, weighted by advertised capacity: the shard count
// is min(cells, total capacity) and each worker's share of the homes is
// proportional to its capacity (largest-remainder rounding, insertion
// order). It returns ok=false when the fleet has no workers at all.
func (f *fleet) assign(cells int) (homes []string, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	eligible := f.assignableLocked()
	if len(eligible) == 0 {
		return nil, false
	}
	total := 0
	for _, w := range eligible {
		total += max(1, w.capacity)
	}
	of := min(cells, total)
	// Largest-remainder apportionment of the `of` shard homes: floor
	// quotas first, then one extra home per largest fractional
	// remainder, insertion order breaking ties.
	quota := make([]int, len(eligible))
	frac := make([]float64, len(eligible))
	assigned := 0
	for i, w := range eligible {
		exact := float64(of) * float64(max(1, w.capacity)) / float64(total)
		quota[i] = int(exact)
		frac[i] = exact - float64(quota[i])
		assigned += quota[i]
	}
	for ; assigned < of; assigned++ {
		best := 0
		for i := 1; i < len(frac); i++ {
			if frac[i] > frac[best] {
				best = i
			}
		}
		quota[best]++
		frac[best] = -1 // consumed
	}
	homes = make([]string, 0, of)
	for i, w := range eligible {
		for n := 0; n < quota[i]; n++ {
			homes = append(homes, w.url)
		}
	}
	return homes, true
}

// assignableLocked returns the workers new shards may be homed on, in
// insertion order: those in the healthiest state present — healthy;
// if none, suspect (degraded beats refusing); if none, every evicted
// member (the retry loop will surface per-worker failures). Callers
// hold f.mu.
func (f *fleet) assignableLocked() []*fleetWorker {
	var best []*fleetWorker
	bestRank := stateRank(WorkerEvicted) + 1
	for _, u := range f.order {
		w := f.workers[u]
		switch r := stateRank(w.state); {
		case r < bestRank:
			best, bestRank = []*fleetWorker{w}, r
		case r == bestRank:
			best = append(best, w)
		}
	}
	return best
}

// nextWorker picks the best untried worker for a shard attempt: the
// healthiest state first, and within a state the insertion order
// rotated to start at the shard's home worker — so retries walk the
// fleet round-robin and a hot-added worker is picked up mid-sweep. It
// returns "" when every current member has been tried.
func (f *fleet) nextWorker(home string, tried map[string]bool) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.order) == 0 {
		return ""
	}
	start := 0
	for i, u := range f.order {
		if u == home {
			start = i
			break
		}
	}
	best := ""
	bestRank := stateRank(WorkerEvicted) + 1
	for i := 0; i < len(f.order); i++ {
		u := f.order[(start+i)%len(f.order)]
		if tried[u] {
			continue
		}
		if r := stateRank(f.workers[u].state); r < bestRank {
			best, bestRank = u, r
		}
	}
	return best
}

// reportSuccess folds a successful probe or shard into the state
// machine: failures reset, and a suspect or evicted worker is
// re-admitted to healthy.
func (f *fleet) reportSuccess(url string, capacity int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[url]
	if !ok {
		return
	}
	w.failures = 0
	w.lastErr = ""
	w.lastOK = f.now()
	w.backoff = 0
	w.next = time.Time{}
	if capacity > 0 {
		w.capacity = capacity
	}
	if w.state != WorkerHealthy {
		from := w.state
		w.state = WorkerHealthy
		f.metrics.transitions.add(pair[string]{WorkerHealthy, url}, 1)
		f.logf("fleet: worker %s %s -> healthy (re-admitted)", url, from)
	}
}

// reportFailure folds a failed probe or shard into the state machine: a
// healthy worker turns suspect on the first failure, a suspect worker is
// evicted at the consecutive-failure threshold, and an evicted worker's
// re-probe backoff doubles (capped).
func (f *fleet) reportFailure(url, reason string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[url]
	if !ok {
		return
	}
	w.failures++
	w.lastErr = reason
	switch {
	case w.state == WorkerHealthy:
		w.state = WorkerSuspect
		f.metrics.transitions.add(pair[string]{WorkerSuspect, url}, 1)
		f.logf("fleet: worker %s healthy -> suspect (%s)", url, reason)
		fallthrough
	case w.state == WorkerSuspect:
		if w.failures >= f.threshold {
			w.state = WorkerEvicted
			w.backoff = f.readmit
			w.next = f.now().Add(w.backoff)
			f.metrics.transitions.add(pair[string]{WorkerEvicted, url}, 1)
			f.logf("fleet: worker %s suspect -> evicted after %d consecutive failures (%s); re-probe in %s",
				url, w.failures, reason, w.backoff)
		}
	default: // evicted: double the re-probe backoff
		if w.backoff < f.readmit*(1<<readmitBackoffCap) {
			w.backoff *= 2
		}
		w.next = f.now().Add(w.backoff)
	}
}

// ensureProbing starts the background probe loop once the fleet is
// non-empty; further calls are no-ops. The loop stops at close.
func (f *fleet) ensureProbing() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.probing || f.stopped || len(f.order) == 0 {
		return
	}
	f.probing = true
	go f.probeLoop()
}

// close stops the probe loop and waits for it to exit; it is safe to
// call more than once and with probing never started.
func (f *fleet) close() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	probing := f.probing
	f.mu.Unlock()
	close(f.stop)
	if probing {
		<-f.loopDone
	}
}

// probeLoop is the background lifecycle driver: every probe interval it
// re-reads a changed worker file and probes every due worker.
func (f *fleet) probeLoop() {
	defer close(f.loopDone)
	ticker := time.NewTicker(f.interval)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			if f.file != "" {
				f.syncFile()
			}
			f.probeDue(context.Background())
		}
	}
}

// probeDue probes every worker that is due now — healthy and suspect
// workers every interval, evicted workers once their backoff expires —
// concurrently, and folds the results into the state machine.
func (f *fleet) probeDue(ctx context.Context) {
	f.mu.Lock()
	var due []string
	now := f.now()
	for _, u := range f.order {
		w := f.workers[u]
		if w.state != WorkerEvicted || !w.next.After(now) {
			due = append(due, u)
		}
	}
	f.mu.Unlock()

	var wg sync.WaitGroup
	for _, u := range due {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			f.probe(ctx, u)
		}(u)
	}
	wg.Wait()
}

// probe checks one worker's GET /healthz under the probe deadline and
// reports the outcome (with the advertised capacity on success) into
// the state machine and the probe counters.
func (f *fleet) probe(ctx context.Context, url string) {
	capacity, err := f.checkHealth(ctx, url)
	if err != nil {
		f.metrics.probes.add(pair[string]{shardResultError, url}, 1)
		f.reportFailure(url, fmt.Sprintf("probe: %v", err))
		return
	}
	f.metrics.probes.add(pair[string]{shardResultOK, url}, 1)
	f.reportSuccess(url, capacity)
}

// checkHealth performs the health request itself, returning the
// worker's advertised capacity (1 when the body carries none, so plain
// 200-OK health endpoints still count as alive).
func (f *fleet) checkHealth(ctx context.Context, url string) (capacity int, err error) {
	ctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return 1, nil // alive, just not an msoc-serve /healthz body
	}
	if !health.OK {
		return 0, fmt.Errorf("worker reports ok=false")
	}
	return max(1, health.Capacity), nil
}

// syncFile re-reads the watched worker file when its content changed:
// new URLs are admitted (source "file"), and file-sourced workers no
// longer listed are removed. Static- and API-sourced workers are never
// touched by the file.
func (f *fleet) syncFile() {
	data, err := os.ReadFile(f.file)
	if err != nil {
		f.logf("fleet: worker file %s: %v", f.file, err)
		return
	}
	sig := string(data)
	f.mu.Lock()
	if sig == f.fileSig {
		f.mu.Unlock()
		return
	}
	f.fileSig = sig
	listed := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		u, err := parseWorkerURL(line)
		if err != nil {
			f.logf("fleet: worker file %s: skipping bad url %q", f.file, line)
			continue
		}
		listed[u] = true
		f.addLocked(u, WorkerSourceFile)
	}
	for _, u := range append([]string(nil), f.order...) {
		if w := f.workers[u]; w != nil && w.source == WorkerSourceFile && !listed[u] {
			f.removeLocked(u, "dropped from worker file")
		}
	}
	f.mu.Unlock()
	f.ensureProbing()
}

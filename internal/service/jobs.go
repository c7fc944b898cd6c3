package service

// Durable sweep jobs: the asynchronous, crash-resumable half of the
// serving layer. POST /v1/sweeps validates a sweep exactly like
// POST /v1/sweep, dedupes it by content key — the design hash, the
// normalized grid axes and the exhaustive flag hash to a deterministic
// job ID, so identical re-submissions (before or after a restart)
// land on the existing job — and returns immediately; the sweep then
// runs detached from the submitting connection under the manager's own
// context, so a client that disconnects (499) no longer cancels work.
//
// Durability is built on per-shard checkpoint files, a job's only
// persisted state besides its manifest: every completed shard is
// checkpointed to <job-dir>/<id>/shard_N_of_M.json with writeJSONFile
// (fsynced temp-file-plus-rename, so neither a kill -9 nor a power loss
// mid-checkpoint leaves a torn partial). Once every shard has landed,
// mergeShards assembles them into the exact bytes a synchronous
// POST /v1/sweep would have returned, held in memory and served
// verbatim by GET /v1/sweeps/{id}/result. A restarted coordinator
// re-reads the job directory, re-verifies every persisted partial
// against the same three-step merge contract live merges use (design
// hash, shard geometry, every point's grid coordinate —
// verifyShardPartial, shared with coordinator.post), deletes the ones
// that fail it, and either finishes the job at once (every shard
// present) or re-runs only the missing shards.
//
// The in-memory shard table is also the only progress record: event
// streams read it under the job lock and wait on the job's changed
// channel for the next shard or the terminal state.
//
// The shard work goes through Server.runShards, the runner synchronous
// distributed sweeps use: on a coordinator with a live fleet each
// missing shard gets per-attempt deadlines, retry-by-reassignment and
// fleet state-machine feedback; on a standalone server the shards solve
// in-process through Server.Shard, each holding one worker-pool slot,
// so jobs and interactive requests share the same saturation bound.
// Either way every partial is bit-identical to the same cells of an
// unsharded sweep, which is what makes the checkpoint files mergeable
// across process lifetimes.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The lifecycle states of a durable sweep job.
const (
	// JobStateRunning marks a job with shards still unsolved (including
	// a job recovered from disk that is re-running its missing shards).
	JobStateRunning = "running"
	// JobStateDone marks a job whose merged result is available at
	// GET /v1/sweeps/{id}/result, byte-identical to a synchronous sweep.
	JobStateDone = "done"
	// JobStateFailed marks a job that exhausted its shard attempts;
	// re-submitting the identical sweep resumes it from its checkpoints.
	JobStateFailed = "failed"
)

// maxLocalJobShards caps how many shards a job is split into on a
// server with no fleet: enough to checkpoint progress in pieces
// without flooding the worker pool with tiny selects.
const maxLocalJobShards = 4

// jobGCInterval is how often the retention sweep looks for expired
// terminal jobs (when Options.JobRetention is set).
const jobGCInterval = time.Minute

// JobResponse is the body of POST /v1/sweeps and GET /v1/sweeps/{id}:
// one durable sweep job's identity, grid, and per-shard progress.
type JobResponse struct {
	// ID is the job's content-keyed identifier: a deterministic hash of
	// the design hash, the normalized grid axes, and the exhaustive
	// flag, so identical sweeps always share one ID.
	ID string `json:"id"`
	// State is the job lifecycle state: "running", "done" or "failed".
	State string `json:"state"`
	// DesignHash is the content hash of the job's resolved design.
	DesignHash string `json:"design_hash"`
	// Widths is the job's TAM width axis.
	Widths []int `json:"widths"`
	// WTs is the job's normalized test-time weight axis.
	WTs []float64 `json:"wts"`
	// Exhaustive records whether the job solves the exhaustive baseline.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Bounded records whether the job prunes with the admissible cost
	// lower bound (see SweepRequest.Bounded).
	Bounded bool `json:"bounded,omitempty"`
	// Backend records the packing backend the job plans with; empty is
	// the default occupancy backend (see PlanRequest.Backend).
	Backend string `json:"backend,omitempty"`
	// ShardsDone counts the shards with a verified partial (checkpointed
	// or recovered).
	ShardsDone int `json:"shards_done"`
	// ShardsTotal is the job's shard count, fixed at submission.
	ShardsTotal int `json:"shards_total"`
	// Shards is the per-shard progress, indexed by shard number.
	Shards []JobShardInfo `json:"shards"`
	// Recovered is true when the job was restored from the job directory
	// after a coordinator restart.
	Recovered bool `json:"recovered,omitempty"`
	// Error describes why the job failed; empty unless State is "failed".
	Error string `json:"error,omitempty"`
	// Failures details the failed shard attempts of a failed job.
	Failures []WorkerFailure `json:"failures,omitempty"`
	// CreatedAt is the RFC 3339 submission time.
	CreatedAt string `json:"created_at,omitempty"`
	// FinishedAt is the RFC 3339 time the job reached a terminal state;
	// empty while running.
	FinishedAt string `json:"finished_at,omitempty"`
}

// JobShardInfo is one shard's progress within a durable sweep job.
type JobShardInfo struct {
	// Shard is the round-robin shard index.
	Shard int `json:"shard"`
	// State is "pending" until the shard's partial is verified, then
	// "done".
	State string `json:"state"`
	// Points is the number of grid cells the completed shard carries.
	Points int `json:"points,omitempty"`
	// Recovered is true when the shard's partial was restored from a
	// checkpoint file rather than computed by this process.
	Recovered bool `json:"recovered,omitempty"`
}

// JobEvent is one NDJSON line of the GET /v1/sweeps/{id}/events
// stream: a completed shard partial as it lands, or the job's terminal
// state as the final line.
type JobEvent struct {
	// Type is "shard" for a completed partial (Shard is set) or "job"
	// for the stream's terminal line (State is set).
	Type string `json:"type"`
	// Shard is the completed shard's full partial — the same mergeable,
	// JSON-bit-exact unit the checkpoint files hold.
	Shard *ShardResponse `json:"shard,omitempty"`
	// Recovered is true when the partial came from a checkpoint file.
	Recovered bool `json:"recovered,omitempty"`
	// State is the job's terminal state ("done" or "failed") on the
	// final line.
	State string `json:"state,omitempty"`
	// Error describes the failure on a terminal "failed" line.
	Error string `json:"error,omitempty"`
}

// jobManifest is the durable identity of one job —
// <job-dir>/<id>/job.json — everything recovery needs to re-derive the
// sweep spec and the shard split exactly as submitted. encoding/json
// flattens the embedded request in place, so the file's field order is
// the one older binaries wrote (warm_start and timeout_ms are always
// unset, hence omitted).
type jobManifest struct {
	ID         string `json:"id"`
	DesignHash string `json:"design_hash"`
	SweepRequest
	Of        int    `json:"of"`
	CreatedAt string `json:"created_at"`
}

// jobShardState is one shard's in-memory progress: its verified
// partial (nil while pending) and whether it came from a checkpoint.
type jobShardState struct {
	resp      *ShardResponse
	recovered bool
}

// job is one durable sweep job's live state. The manifest fields are
// immutable after construction; everything else is guarded by mu.
type job struct {
	manifest jobManifest
	dir      string // job's own directory; "" when the store is memory-only

	mu         sync.Mutex
	state      string
	shards     []jobShardState
	done       int
	recovered  bool
	errMsg     string
	failures   []WorkerFailure
	result     []byte // exact GET .../result bytes once done
	createdAt  time.Time
	finishedAt time.Time
	changed    chan struct{} // closed and replaced when a shard lands or the job ends
}

// newJob builds a running job with every shard pending.
func newJob(man jobManifest, dir string) *job {
	return &job{
		manifest:  man,
		dir:       dir,
		state:     JobStateRunning,
		shards:    make([]jobShardState, man.Of),
		createdAt: time.Now(),
		changed:   make(chan struct{}),
	}
}

// jobManager owns every durable sweep job: submission and dedupe,
// the detached runners, checkpoint recovery at boot, and retention GC.
// It is created by New and stopped by Server.Close.
type jobManager struct {
	srv       *Server
	dir       string // "" disables durability (jobs are still async + deduped)
	retention time.Duration
	logf      func(format string, args ...any)

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*job
}

// newJobManager builds the manager and, when dir is set, recovers
// every persisted job: manifests are re-read, checkpointed partials
// re-verified against the merge contract (invalid ones deleted),
// fully checkpointed jobs finished, and unfinished jobs resumed with
// only their missing shards re-run.
func newJobManager(s *Server, dir string, retention time.Duration, logf func(string, ...any)) *jobManager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &jobManager{
		srv:       s,
		dir:       dir,
		retention: retention,
		logf:      logf,
		ctx:       ctx,
		cancel:    cancel,
		jobs:      map[string]*job{},
	}
	if dir != "" {
		m.recover()
		if retention > 0 {
			m.wg.Add(1)
			go m.gcLoop()
		}
	}
	return m
}

// close stops every runner (in-flight shard work aborts at its next
// cancellation point; completed checkpoints stay on disk) and waits
// for them.
func (m *jobManager) close() {
	m.cancel()
	m.wg.Wait()
}

// jobID derives the content key every equivalent sweep submission
// shares: the design hash plus the normalized grid axes and the
// exhaustive, bounded and backend flags. Deterministic across processes
// and restarts, which is what makes dedupe survive a coordinator crash.
// Unbounded default-backend jobs keep the original key shape — each
// flag joins the hash only when set — so checkpoints written by an
// older binary still re-derive their IDs at recovery.
func jobID(sp *sweepSpec, exhaustive, bounded bool, backend string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%v|%v|%t", sp.hash, sp.widths, sp.wts, exhaustive)
	if bounded {
		fmt.Fprintf(h, "|bounded")
	}
	if backend != "" {
		fmt.Fprintf(h, "|backend=%s", backend)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// submit validates a sweep, dedupes it against in-flight and finished
// jobs, and starts a detached runner for a new (or resumed failed)
// job. created reports whether a new job was admitted; a deduped
// submission returns the existing job.
func (m *jobManager) submit(req SweepRequest) (j *job, created bool, err error) {
	observe := func(result string) { m.srv.metrics.jobSubmits.add(result, 1) }
	sp, err := m.srv.validateSweep(req)
	if err != nil {
		observe(jobSubmitRejected)
		return nil, false, err
	}
	if req.WarmStart {
		observe(jobSubmitRejected)
		return nil, false, badRequestf("durable jobs solve cold sweeps only: warm_start chains widths sequentially and cannot be sharded or checkpointed")
	}
	if req.TimeoutMS != 0 {
		observe(jobSubmitRejected)
		return nil, false, badRequestf("durable jobs run detached from the request: timeout_ms is not supported, poll GET /v1/sweeps/{id} instead")
	}
	if !sp.distributable() {
		observe(jobSubmitRejected)
		return nil, false, badRequestf("durable jobs need duplicate-free width and wt axes (cells are checkpointed by grid coordinate)")
	}

	id := jobID(sp, req.Exhaustive, req.Bounded, req.Backend)
	m.mu.Lock()
	defer m.mu.Unlock()
	if existing, ok := m.jobs[id]; ok {
		existing.mu.Lock()
		resume := existing.state == JobStateFailed
		if resume {
			// Re-submission of a failed job retries it: keep the verified
			// checkpoints, clear the failure, re-run what is missing.
			existing.state = JobStateRunning
			existing.errMsg = ""
			existing.failures = nil
			existing.finishedAt = time.Time{}
		}
		existing.mu.Unlock()
		if resume {
			observe(jobSubmitResumed)
			m.startRunner(existing, sp)
		} else {
			observe(jobSubmitDeduped)
		}
		return existing, false, nil
	}

	of := m.chooseOf(sp.cells())
	req.WTs = sp.wts
	j = newJob(jobManifest{
		ID:           id,
		DesignHash:   sp.hash,
		SweepRequest: req,
		Of:           of,
		CreatedAt:    time.Now().UTC().Format(time.RFC3339),
	}, "")
	if m.dir != "" {
		j.dir = filepath.Join(m.dir, id)
		if err := os.MkdirAll(j.dir, 0o755); err != nil {
			observe(jobSubmitRejected)
			return nil, false, fmt.Errorf("service: creating job directory: %w", err)
		}
		if err := writeJSONFile(filepath.Join(j.dir, "job.json"), &j.manifest); err != nil {
			observe(jobSubmitRejected)
			return nil, false, fmt.Errorf("service: writing job manifest: %w", err)
		}
	}
	m.jobs[id] = j
	observe(jobSubmitAccepted)
	m.startRunner(j, sp)
	return j, true, nil
}

// chooseOf picks a new job's shard count: with a fleet, the
// capacity-weighted assignment's size (one shard per home, exactly as
// a synchronous distributed sweep would split); standalone, enough
// shards to checkpoint progress in pieces.
func (m *jobManager) chooseOf(cells int) int {
	if homes, ok := m.srv.fleet.assign(cells); ok {
		return len(homes)
	}
	return min(cells, maxLocalJobShards)
}

// get looks a job up by ID.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// stateCounts snapshots how many jobs are in each lifecycle state, for
// the /metrics gauge.
func (m *jobManager) stateCounts() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts := map[string]int{}
	for _, j := range m.jobs {
		j.mu.Lock()
		counts[j.state]++
		j.mu.Unlock()
	}
	return counts
}

// startRunner spawns the job's detached runner under the manager's
// context (never the submitting request's — that is what detaches the
// work from the client connection).
func (m *jobManager) startRunner(j *job, sp *sweepSpec) {
	m.wg.Add(1)
	go m.run(j, sp)
}

// run drives one job to a terminal state: solve every missing shard
// (fleet or local) through runShards, checkpoint each partial as it
// lands, then merge the result. A manager shutdown mid-run leaves the
// job "running" with its checkpoints on disk — exactly the state
// recovery resumes from.
func (m *jobManager) run(j *job, sp *sweepSpec) {
	defer m.wg.Done()
	start := time.Now()
	of := j.manifest.Of
	homes, _ := m.srv.fleet.assign(sp.cells())
	parts := make([]*ShardResponse, of)
	j.mu.Lock()
	for shard, sh := range j.shards {
		parts[shard] = sh.resp
	}
	j.mu.Unlock()
	err := m.srv.runShards(m.ctx, sp, j.manifest.SweepRequest, homes, parts, func(shard int, resp *ShardResponse) {
		m.completeShard(j, shard, resp)
	})

	if m.ctx.Err() != nil {
		// Shutting down: leave the job running — its checkpoints are the
		// resume point for the next process.
		return
	}
	j.mu.Lock()
	if err == nil {
		j.finishLocked(sp)
	} else {
		if dist, ok := err.(*distributedSweepError); ok {
			j.failures = dist.Failures
			if homes == nil {
				err = fmt.Errorf("service: sweep job failed: %d of %d shard(s) unsolved", of-j.done, of)
			}
		}
		j.failLocked(err)
	}
	state := j.state
	j.mu.Unlock()
	m.srv.metrics.jobDur.add(state, time.Since(start).Seconds())
}

// completeShard records one verified partial: checkpoint it to the job
// directory first (atomically — a crash right here costs at most this
// one shard), then publish it to the shard table and wake the job's
// event streams.
func (m *jobManager) completeShard(j *job, shard int, resp *ShardResponse) {
	if j.dir != "" {
		path := filepath.Join(j.dir, shardFileName(shard, j.manifest.Of))
		if err := writeJSONFile(path, resp); err != nil {
			// The shard still counts in memory; a restart would recompute it.
			m.logf("job %s: checkpointing shard %d: %v", j.manifest.ID, shard, err)
		} else {
			m.srv.metrics.jobShards.add(jobShardCheckpointed, 1)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.shards[shard].resp != nil {
		return
	}
	j.shards[shard] = jobShardState{resp: resp}
	j.done++
	close(j.changed)
	j.changed = make(chan struct{})
}

// shardFileName names one shard's checkpoint file within its job
// directory.
func shardFileName(shard, of int) string {
	return fmt.Sprintf("shard_%d_of_%d.json", shard, of)
}

// finishLocked merges a fully-solved job's partials into the exact
// bytes a synchronous sweep would have returned — served verbatim by
// GET /v1/sweeps/{id}/result — and marks the job done. Called with
// j.mu held (or before the job is published).
func (j *job) finishLocked(sp *sweepSpec) {
	parts := make([]*ShardResponse, len(j.shards))
	for i, sh := range j.shards {
		parts[i] = sh.resp
	}
	data, err := marshalJSON(mergeShards(sp, parts))
	if err != nil {
		j.failLocked(err)
		return
	}
	j.result = data
	j.terminalLocked(JobStateDone)
}

// failLocked moves the job to "failed" with err as its message. Called
// with j.mu held.
func (j *job) failLocked(err error) {
	j.errMsg = err.Error()
	j.terminalLocked(JobStateFailed)
}

// terminalLocked moves the job to a terminal state, stamps the finish
// time, and wakes the job's event streams so they write the terminal
// line. Called with j.mu held.
func (j *job) terminalLocked(state string) {
	j.state = state
	j.finishedAt = time.Now()
	close(j.changed)
	j.changed = make(chan struct{})
}

// marshalEvent renders one NDJSON event line.
func marshalEvent(ev JobEvent) []byte {
	line, err := json.Marshal(ev)
	if err != nil {
		// ShardResponse and JobEvent marshal cannot fail; keep the
		// stream's line discipline anyway.
		line = []byte(fmt.Sprintf(`{"type":"job","state":%q,"error":%q}`, JobStateFailed, err.Error()))
	}
	return append(line, '\n')
}

// eventsSince returns the event lines a stream still owes, given the
// shards it has already sent: every newly completed shard in shard
// order (marked in sent), then — once the job is no longer running —
// the terminal line with a nil wake. While the job runs, wake is closed
// at its next change. Reading the table under the job lock keeps every
// stream gapless and duplicate-free, however slowly it is consumed.
func (j *job) eventsSince(sent []bool) (lines [][]byte, wake <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, sh := range j.shards {
		if sh.resp != nil && !sent[i] {
			sent[i] = true
			lines = append(lines, marshalEvent(JobEvent{Type: "shard", Shard: sh.resp, Recovered: sh.recovered}))
		}
	}
	if j.state != JobStateRunning {
		return append(lines, marshalEvent(JobEvent{Type: "job", State: j.state, Error: j.errMsg})), nil
	}
	return lines, j.changed
}

// status snapshots the job as its API representation.
func (j *job) status() *JobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	resp := &JobResponse{
		ID:          j.manifest.ID,
		State:       j.state,
		DesignHash:  j.manifest.DesignHash,
		Widths:      j.manifest.Widths,
		WTs:         j.manifest.WTs,
		Exhaustive:  j.manifest.Exhaustive,
		Bounded:     j.manifest.Bounded,
		Backend:     j.manifest.Backend,
		ShardsDone:  j.done,
		ShardsTotal: j.manifest.Of,
		Shards:      make([]JobShardInfo, len(j.shards)),
		Recovered:   j.recovered,
		Error:       j.errMsg,
		Failures:    j.failures,
		CreatedAt:   j.manifest.CreatedAt,
	}
	if !j.finishedAt.IsZero() {
		resp.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339)
	}
	for i, sh := range j.shards {
		info := JobShardInfo{Shard: i, State: "pending"}
		if sh.resp != nil {
			info.State = "done"
			info.Points = len(sh.resp.Points)
			info.Recovered = sh.recovered
		}
		resp.Shards[i] = info
	}
	return resp
}

// recover rebuilds every persisted job from the job directory at boot:
// manifests are re-validated, each checkpoint re-verified against the
// merge contract (invalid files deleted — they will simply be re-run),
// fully checkpointed jobs finished from their partials, and unfinished
// jobs resumed with only their missing shards.
func (m *jobManager) recover() {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		if !os.IsNotExist(err) {
			m.logf("job recovery: reading %s: %v", m.dir, err)
		}
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if err := m.recoverJob(filepath.Join(m.dir, e.Name())); err != nil {
			m.logf("job recovery: %s: %v", e.Name(), err)
		}
	}
}

// recoverJob restores one job directory. An unreadable or inconsistent
// manifest abandons the directory (returned as an error, logged);
// individually invalid checkpoints are deleted and recomputed.
func (m *jobManager) recoverJob(dir string) error {
	var man jobManifest
	if err := readJSONFile(filepath.Join(dir, "job.json"), &man); err != nil {
		return err
	}
	sp, err := m.srv.validateSweep(man.SweepRequest)
	if err != nil {
		return fmt.Errorf("manifest does not validate: %w", err)
	}
	if man.ID != jobID(sp, man.Exhaustive, man.Bounded, man.Backend) {
		return fmt.Errorf("manifest ID %s does not match its content key", man.ID)
	}
	if man.DesignHash != sp.hash {
		return fmt.Errorf("manifest design hash %s does not match the design (%s)", man.DesignHash, sp.hash)
	}
	if man.Of < 1 || man.Of > sp.cells() {
		return fmt.Errorf("manifest shard count %d out of range for a %d-cell grid", man.Of, sp.cells())
	}

	j := newJob(man, dir)
	j.recovered = true
	if t, err := time.Parse(time.RFC3339, man.CreatedAt); err == nil {
		j.createdAt = t
	}

	// Re-verify every checkpoint against the same contract a live merge
	// applies; a file that fails it is deleted and its shard re-run.
	var newest time.Time
	for shard := 0; shard < man.Of; shard++ {
		path := filepath.Join(dir, shardFileName(shard, man.Of))
		var resp ShardResponse
		if err := readJSONFile(path, &resp); err != nil {
			if !os.IsNotExist(err) {
				m.logf("job recovery: %s shard %d: %v (recomputing)", man.ID, shard, err)
				m.srv.metrics.jobShards.add(jobShardInvalid, 1)
				_ = os.Remove(path)
			}
			continue
		}
		want, err := roundRobin(sp.cells(), shard, man.Of)
		if err != nil {
			return err
		}
		if err := verifyShardPartial(sp, shard, man.Of, want, &resp); err != nil {
			m.logf("job recovery: %s shard %d: %v (recomputing)", man.ID, shard, err)
			m.srv.metrics.jobShards.add(jobShardInvalid, 1)
			_ = os.Remove(path)
			continue
		}
		if fi, err := os.Stat(path); err == nil && fi.ModTime().After(newest) {
			newest = fi.ModTime()
		}
		j.shards[shard] = jobShardState{resp: &resp, recovered: true}
		j.done++
		m.srv.metrics.jobShards.add(jobShardRecovered, 1)
	}

	// Every shard checkpointed means the job finished before the
	// restart: merge it now, before the job is published, so it is never
	// seen running. Retention counts from the last checkpoint's write.
	finished := j.done == man.Of
	if finished {
		j.finishLocked(sp)
		j.finishedAt = newest
	}
	m.mu.Lock()
	m.jobs[man.ID] = j
	m.mu.Unlock()
	m.srv.metrics.recoveries.add("", 1)
	if finished {
		m.logf("job recovery: %s: finished job recovered (%d shards)", man.ID, man.Of)
		return nil
	}
	m.logf("job recovery: %s: resuming with %d/%d shards checkpointed", man.ID, j.done, man.Of)
	m.startRunner(j, sp)
	return nil
}

// writeJSONFile writes v as indented JSON with a trailing newline to
// path, atomically and durably: the bytes land in a temp file in the
// same directory, are fsynced, and the file is renamed over path, after
// which the directory itself is fsynced. So neither a killed process
// nor a power loss or OS crash mid-write can leave a torn, half-written
// or zero-length file behind. Job manifests and shard checkpoints both
// go through it.
func writeJSONFile(path string, v any) error {
	data, err := marshalJSON(v)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if err := errors.Join(werr, tmp.Chmod(0o644), tmp.Sync(), tmp.Close()); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// readJSONFile reads a JSON file written by writeJSONFile into v. It
// fails loudly on empty (zero-byte or whitespace-only) files — the
// tell-tale of a torn write on filesystems without atomic rename — and
// on malformed JSON, always naming the offending path.
func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return fmt.Errorf("%s: empty file", path)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// gcLoop periodically drops terminal jobs older than the retention
// window: their directories are removed and the IDs forgotten (an
// identical re-submission then simply computes a fresh job).
func (m *jobManager) gcLoop() {
	defer m.wg.Done()
	t := time.NewTicker(jobGCInterval)
	defer t.Stop()
	for {
		m.gcOnce()
		select {
		case <-t.C:
		case <-m.ctx.Done():
			return
		}
	}
}

// gcOnce removes every terminal job whose finish time is past the
// retention window.
func (m *jobManager) gcOnce() {
	cutoff := time.Now().Add(-m.retention)
	m.mu.Lock()
	var expired []*job
	for id, j := range m.jobs {
		j.mu.Lock()
		if j.state != JobStateRunning && !j.finishedAt.IsZero() && j.finishedAt.Before(cutoff) {
			expired = append(expired, j)
			delete(m.jobs, id)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for _, j := range expired {
		if j.dir != "" {
			if err := os.RemoveAll(j.dir); err != nil {
				m.logf("job gc: removing %s: %v", j.dir, err)
			}
		}
	}
}

// handleJobSubmit answers POST /v1/sweeps: 202 with the new job's
// status, or 200 with the existing job when the submission dedupes
// (identical design hash, grid and options always share one job ID).
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	j, created, err := s.jobs.submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if created {
		w.WriteHeader(http.StatusAccepted)
	}
	_ = WriteJSON(w, j.status())
}

// handleJobStatus answers GET /v1/sweeps/{id} with the job's per-shard
// progress.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeStatus(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	writeResponse(w, j.status())
}

// handleJobResult answers GET /v1/sweeps/{id}/result: the merged
// response bytes verbatim (byte-identical to a synchronous
// POST /v1/sweep) once done, 409 while running, 502 with the shard
// failures when failed.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeStatus(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	state, result, errMsg, failures := j.state, j.result, j.errMsg, j.failures
	j.mu.Unlock()
	switch state {
	case JobStateDone:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(result)
	case JobStateFailed:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		_ = WriteJSON(w, ErrorResponse{Error: errMsg, Workers: failures})
	default:
		writeStatus(w, http.StatusConflict, fmt.Sprintf("job %s is still running; poll GET /v1/sweeps/%s", j.manifest.ID, j.manifest.ID))
	}
}

// handleJobEvents answers GET /v1/sweeps/{id}/events with an NDJSON
// stream: every already-completed shard partial is replayed first,
// live completions follow as they land, and the job's terminal state
// is the final line. The stream survives nothing the job does not —
// a coordinator restart drops it; reconnecting replays everything.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeStatus(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	sent := make([]bool, j.manifest.Of)
	for {
		lines, wake := j.eventsSince(sent)
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		_ = rc.Flush()
		if wake == nil {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.jobs.ctx.Done():
			return
		}
	}
}

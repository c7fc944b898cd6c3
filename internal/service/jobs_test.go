package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// jobTestGrid is the sweep the durable-job tests run: two cells, so a
// standalone server splits it into two checkpointable shards while each
// cell stays a single fast plan.
var jobTestGrid = SweepRequest{Widths: []int{32, 40}, WTs: []float64{0.5}}

// newJobServer boots a standalone server with a durable job directory.
func newJobServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{JobDir: dir})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submitJob posts one job submission and returns its parsed status.
func submitJob(t *testing.T, ts *httptest.Server, req SweepRequest, wantStatus int) *JobResponse {
	t.Helper()
	status, body := post(t, ts, "/v1/sweeps", req)
	if status != wantStatus {
		t.Fatalf("POST /v1/sweeps: status %d, want %d: %s", status, wantStatus, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("job response not JSON: %v: %s", err, body)
	}
	return &jr
}

// getJSON fetches one GET endpoint, returning status and body.
func getJSON(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// waitJobState polls the job until it reaches the wanted state, failing
// after the deadline.
func waitJobState(t *testing.T, ts *httptest.Server, id, want string, deadline time.Duration) *JobResponse {
	t.Helper()
	timeout := time.After(deadline)
	for {
		status, body := getJSON(t, ts, "/v1/sweeps/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET /v1/sweeps/%s: status %d: %s", id, status, body)
		}
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.State == want {
			return &jr
		}
		select {
		case <-timeout:
			t.Fatalf("job %s never reached %q within %v; last status: %s", id, want, deadline, body)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// A submitted job must run detached, checkpoint every shard to the job
// directory, and serve a result byte-identical to a synchronous sweep
// of the same grid.
func TestJobRunsToCompletionWithSyncIdenticalBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	want := inProcessSweepBytes(t, jobTestGrid)
	dir := t.TempDir()
	_, ts := newJobServer(t, dir)

	jr := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
	if jr.State != JobStateRunning && jr.State != JobStateDone {
		t.Fatalf("fresh job state = %q", jr.State)
	}
	if jr.ShardsTotal != 2 {
		t.Fatalf("2-cell standalone job split into %d shards, want 2", jr.ShardsTotal)
	}
	final := waitJobState(t, ts, jr.ID, JobStateDone, 2*time.Minute)
	if final.ShardsDone != final.ShardsTotal {
		t.Fatalf("done job reports %d/%d shards", final.ShardsDone, final.ShardsTotal)
	}

	status, got := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/result")
	if status != http.StatusOK {
		t.Fatalf("result: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("job result differs from synchronous sweep (%d vs %d bytes)", len(got), len(want))
	}

	// The durable layout: manifest, one checkpoint per shard, result.
	jobDir := filepath.Join(dir, jr.ID)
	for _, name := range []string{"job.json", "shard_0_of_2.json", "shard_1_of_2.json", "result.json"} {
		if _, err := os.Stat(filepath.Join(jobDir, name)); err != nil {
			t.Errorf("job dir lacks %s: %v", name, err)
		}
	}

	series := scrape(t, ts)
	if got := series[`msoc_jobs{state="done"}`]; got != 1 {
		t.Errorf("msoc_jobs{done} = %v, want 1", got)
	}
	if got := series[`msoc_job_submissions_total{result="accepted"}`]; got != 1 {
		t.Errorf("accepted submissions = %v, want 1", got)
	}
	if got := series[`msoc_job_shards_total{event="checkpointed"}`]; got != 2 {
		t.Errorf("checkpointed shards = %v, want 2", got)
	}
}

// Identical submissions — same design hash, grid and options — must
// land on one job ID, before and after completion; a different grid
// must not.
func TestJobDedupeByContentKey(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	_, ts := newJobServer(t, t.TempDir())

	first := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
	dup := submitJob(t, ts, jobTestGrid, http.StatusOK) // deduped, not re-admitted
	if dup.ID != first.ID {
		t.Fatalf("identical submission got job %s, want existing %s", dup.ID, first.ID)
	}
	waitJobState(t, ts, first.ID, JobStateDone, 2*time.Minute)
	done := submitJob(t, ts, jobTestGrid, http.StatusOK)
	if done.ID != first.ID || done.State != JobStateDone {
		t.Fatalf("post-completion resubmission: %+v, want done job %s", done, first.ID)
	}

	other := jobTestGrid
	other.Exhaustive = true
	otherJob := submitJob(t, ts, other, http.StatusAccepted)
	if otherJob.ID == first.ID {
		t.Fatal("exhaustive sweep shares the heuristic sweep's job ID")
	}
	if got := scrape(t, ts)[`msoc_job_submissions_total{result="deduped"}`]; got != 2 {
		t.Errorf("deduped submissions = %v, want 2", got)
	}
}

// Submission validation: options a detached, shardable job cannot honor
// are 400s, and unknown job IDs are 404s on every job endpoint.
func TestJobSubmitValidationAndLookupErrors(t *testing.T) {
	_, ts := newJobServer(t, t.TempDir())

	bad := []SweepRequest{
		{Widths: []int{32}, WarmStart: true},          // sequential, unshardable
		{Widths: []int{32}, TimeoutMS: 1000},          // detached jobs have no request deadline
		{Widths: []int{32, 32}},                       // duplicate width axis
		{Widths: []int{32, 40}, WTs: []float64{1, 1}}, // duplicate weight axis
		{Widths: nil},      // no widths
		{Widths: []int{0}}, // width out of range
		{Widths: []int{32}, Backend: "no-such-backend"}, // unknown packing backend
	}
	for _, req := range bad {
		if status, body := post(t, ts, "/v1/sweeps", req); status != http.StatusBadRequest {
			t.Errorf("submit %+v: status %d, want 400 (%s)", req, status, body)
		}
	}
	for _, path := range []string{"/v1/sweeps/nope", "/v1/sweeps/nope/result", "/v1/sweeps/nope/events"} {
		if status, body := getJSON(t, ts, path); status != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 (%s)", path, status, body)
		}
	}
	if got := scrape(t, ts)[`msoc_job_submissions_total{result="rejected"}`]; got != float64(len(bad)) {
		t.Errorf("rejected submissions = %v, want %d", got, len(bad))
	}
}

// While a job is still running its result endpoint must answer 409 —
// and the events stream must replay completed shards, deliver live
// ones, and terminate with the job line. The worker pool is saturated
// first so the job is reliably observable mid-flight.
func TestJobResultNotReadyAndEventsStream(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	s, ts := newJobServer(t, t.TempDir())

	// Hold every pool slot: the job's local shards queue behind us.
	for i := 0; i < s.slots.Cap(); i++ {
		if err := s.slots.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	released := false
	release := func() {
		if !released {
			released = true
			for i := 0; i < s.slots.Cap(); i++ {
				s.slots.Release()
			}
		}
	}
	defer release()

	jr := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
	if status, body := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/result"); status != http.StatusConflict {
		t.Fatalf("result of a running job: status %d, want 409 (%s)", status, body)
	}

	// Subscribe while nothing has completed, then let the job run.
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + jr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	release()

	var shardEvents int
	var terminal *JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "shard":
			if ev.Shard == nil || len(ev.Shard.Points) == 0 {
				t.Errorf("shard event carries no partial: %s", sc.Text())
			}
			shardEvents++
		case "job":
			terminal = &ev
		default:
			t.Errorf("unknown event type %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if shardEvents != jr.ShardsTotal {
		t.Errorf("stream delivered %d shard events, want %d", shardEvents, jr.ShardsTotal)
	}
	if terminal == nil || terminal.State != JobStateDone {
		t.Fatalf("stream terminal event = %+v, want done", terminal)
	}

	// Reconnecting after completion replays everything and terminates.
	status, body := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/events")
	if status != http.StatusOK {
		t.Fatalf("events replay: status %d", status)
	}
	if got := strings.Count(string(body), "\n"); got != jr.ShardsTotal+1 {
		t.Errorf("replay stream has %d lines, want %d", got, jr.ShardsTotal+1)
	}
}

// A restarted server must recover persisted jobs: a finished job's
// result serves verbatim with no recomputation, and a job missing
// shards (deleted or corrupted checkpoints) re-runs exactly those and
// converges to the same bytes.
func TestJobRecoveryAfterRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	dir := t.TempDir()
	sA, tsA := newJobServer(t, dir)
	jr := submitJob(t, tsA, jobTestGrid, http.StatusAccepted)
	doneA := waitJobState(t, tsA, jr.ID, JobStateDone, 2*time.Minute)
	_, want := getJSON(t, tsA, "/v1/sweeps/"+jr.ID+"/result")
	partsA := shardEvents(t, tsA, jr.ID)
	tsA.Close()
	sA.Close()

	// Restart 1: intact directory. The job must come back done with the
	// identical bytes, straight from result.json, and replay the same
	// shard partials it streamed before the restart, now flagged
	// recovered.
	sB, tsB := newJobServer(t, dir)
	status, body := getJSON(t, tsB, "/v1/sweeps/"+jr.ID)
	if status != http.StatusOK {
		t.Fatalf("recovered job status: %d: %s", status, body)
	}
	var recovered JobResponse
	if err := json.Unmarshal(body, &recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.State != JobStateDone || !recovered.Recovered {
		t.Fatalf("recovered job = state %q recovered %t, want done/true", recovered.State, recovered.Recovered)
	}
	if _, got := getJSON(t, tsB, "/v1/sweeps/"+jr.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("recovered result differs from the original bytes")
	}
	partsB := shardEvents(t, tsB, jr.ID)
	if len(partsB) != len(partsA) {
		t.Fatalf("recovered job replays %d shard events, want %d", len(partsB), len(partsA))
	}
	for i, ev := range partsB {
		if !ev.Recovered || partsA[i].Recovered {
			t.Errorf("shard event %d: recovered %t before the restart, %t after; want false, true", i, partsA[i].Recovered, ev.Recovered)
		}
		if !bytes.Equal(ev.Shard, partsA[i].Shard) {
			t.Errorf("shard event %d replays\n%s\nwant the pre-restart partial\n%s", i, ev.Shard, partsA[i].Shard)
		}
		if got, want := recovered.Shards[i].Points, doneA.Shards[i].Points; got != want {
			t.Errorf("status shard %d: %d points, want %d", i, got, want)
		}
	}
	if got := scrape(t, tsB)[`msoc_job_recoveries_total`]; got != 1 {
		t.Errorf("recoveries = %v, want 1", got)
	}
	tsB.Close()
	sB.Close()

	// Restart 2: lose the result, delete one checkpoint, corrupt the
	// other. Recovery must re-verify, drop the corrupt file, re-run both
	// shards, and still produce the identical bytes.
	jobDir := filepath.Join(dir, jr.ID)
	if err := os.Remove(filepath.Join(jobDir, "result.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(jobDir, "shard_0_of_2.json")); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(jobDir, "shard_1_of_2.json")
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	_, tsC := newJobServer(t, dir)
	final := waitJobState(t, tsC, jr.ID, JobStateDone, 2*time.Minute)
	if !final.Recovered {
		t.Error("resumed job not flagged recovered")
	}
	if _, got := getJSON(t, tsC, "/v1/sweeps/"+jr.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("resumed result differs from the original bytes")
	}
	series := scrape(t, tsC)
	if got := series[`msoc_job_shards_total{event="invalid"}`]; got != 1 {
		t.Errorf("invalid checkpoints = %v, want 1 (the truncated file)", got)
	}
	if got := series[`msoc_job_shards_total{event="checkpointed"}`]; got != 2 {
		t.Errorf("re-checkpointed shards = %v, want 2", got)
	}
}

// shardEvent is one shard line of a job's event stream, its partial
// kept as the raw bytes the server sent.
type shardEvent struct {
	Shard     json.RawMessage `json:"shard"`
	Recovered bool            `json:"recovered"`
}

// shardEvents reads a finished job's event stream and returns its shard
// lines in stream order.
func shardEvents(t *testing.T, ts *httptest.Server, id string) []shardEvent {
	t.Helper()
	status, body := getJSON(t, ts, "/v1/sweeps/"+id+"/events")
	if status != http.StatusOK {
		t.Fatalf("GET events: status %d: %s", status, body)
	}
	var events []shardEvent
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var ev struct {
			Type string `json:"type"`
			shardEvent
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if ev.Type == "shard" {
			events = append(events, ev.shardEvent)
		}
	}
	return events
}

// A valid checkpoint must survive a restart untouched: only the missing
// shard is recomputed, and the recovered partial is flagged as such in
// the job's progress.
func TestJobRecoveryReusesValidCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	dir := t.TempDir()
	sA, tsA := newJobServer(t, dir)
	jr := submitJob(t, tsA, jobTestGrid, http.StatusAccepted)
	waitJobState(t, tsA, jr.ID, JobStateDone, 2*time.Minute)
	_, want := getJSON(t, tsA, "/v1/sweeps/"+jr.ID+"/result")
	tsA.Close()
	sA.Close()

	jobDir := filepath.Join(dir, jr.ID)
	if err := os.Remove(filepath.Join(jobDir, "result.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(jobDir, "shard_1_of_2.json")); err != nil {
		t.Fatal(err)
	}
	kept, err := os.ReadFile(filepath.Join(jobDir, "shard_0_of_2.json"))
	if err != nil {
		t.Fatal(err)
	}

	_, tsB := newJobServer(t, dir)
	final := waitJobState(t, tsB, jr.ID, JobStateDone, 2*time.Minute)
	var states []string
	for _, sh := range final.Shards {
		label := sh.State
		if sh.Recovered {
			label += "/recovered"
		}
		states = append(states, label)
	}
	if states[0] != "done/recovered" || states[1] != "done" {
		t.Fatalf("shard states after resume = %v, want [done/recovered done]", states)
	}
	after, err := os.ReadFile(filepath.Join(jobDir, "shard_0_of_2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept, after) {
		t.Error("resume rewrote the surviving checkpoint; it must be reused, not recomputed")
	}
	if _, got := getJSON(t, tsB, "/v1/sweeps/"+jr.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("resumed result differs from the original bytes")
	}
}

// A job whose fleet fails every shard must land in "failed" with the
// per-worker detail, answer 502 on its result — and resubmitting the
// identical sweep must resume the same job, not mint a new one.
func TestJobFailureAndResubmissionResume(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	broken := newBrokenWorker(t, "no planner here")
	s := New(Options{WorkerURLs: []string{broken.URL}, ShardAttempts: 1, RetryBackoff: time.Millisecond, JobDir: t.TempDir()})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	jr := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
	failed := waitJobState(t, ts, jr.ID, JobStateFailed, time.Minute)
	if failed.Error == "" || len(failed.Failures) == 0 {
		t.Fatalf("failed job lacks detail: %+v", failed)
	}
	status, body := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/result")
	if status != http.StatusBadGateway {
		t.Fatalf("failed job result: status %d, want 502 (%s)", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || len(er.Workers) == 0 {
		t.Fatalf("502 body lacks worker failures: %s", body)
	}

	// Heal the fleet by dropping the broken worker: the job then runs
	// in-process on resubmission.
	if err := s.fleet.update(nil, []string{broken.URL}); err != nil {
		t.Fatal(err)
	}
	resumed := submitJob(t, ts, jobTestGrid, http.StatusOK)
	if resumed.ID != jr.ID {
		t.Fatalf("resubmission minted job %s, want resumed %s", resumed.ID, jr.ID)
	}
	waitJobState(t, ts, jr.ID, JobStateDone, 2*time.Minute)
	want := inProcessSweepBytes(t, jobTestGrid)
	if _, got := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/result"); !bytes.Equal(got, want) {
		t.Fatal("resumed job's result differs from the synchronous sweep")
	}
	if got := scrape(t, ts)[`msoc_job_submissions_total{result="resumed"}`]; got != 1 {
		t.Errorf("resumed submissions = %v, want 1", got)
	}
}

// A failed job's 502 body must list its failures grouped by shard in
// shard order, each shard's attempts in the order they happened. Four
// shards on four failing workers make 16 failures, past the size at
// which an unstable sort starts reordering equal shard keys.
func TestJobFailuresKeepPerShardAttemptOrder(t *testing.T) {
	var mu sync.Mutex
	hits := map[int][]string{} // shard → workers in attempt order
	urls := make([]string, 4)
	for i := range urls {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var req ShardRequest
			if r.URL.Path == "/v1/shard" && json.NewDecoder(r.Body).Decode(&req) == nil {
				mu.Lock()
				hits[req.Shard] = append(hits[req.Shard], fmt.Sprint(i))
				mu.Unlock()
			}
			http.Error(w, "no planner here", http.StatusInternalServerError)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	s := New(Options{WorkerURLs: urls, RetryBackoff: time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	grid := SweepRequest{Widths: []int{32, 40, 48, 56}, WTs: []float64{0.5}}
	jr := submitJob(t, ts, grid, http.StatusAccepted)
	if jr.ShardsTotal != 4 {
		t.Fatalf("4-cell job on 4 workers split into %d shards, want 4", jr.ShardsTotal)
	}
	waitJobState(t, ts, jr.ID, JobStateFailed, time.Minute)
	status, body := getJSON(t, ts, "/v1/sweeps/"+jr.ID+"/result")
	var er ErrorResponse
	if status != http.StatusBadGateway || json.Unmarshal(body, &er) != nil {
		t.Fatalf("failed job result: status %d, want a 502 ErrorResponse (%s)", status, body)
	}
	if len(er.Workers) != 16 {
		t.Fatalf("502 lists %d failures, want 16 (4 shards × 4 workers): %s", len(er.Workers), body)
	}
	got := map[int][]string{}
	for i, f := range er.Workers {
		if i > 0 && f.Shard < er.Workers[i-1].Shard {
			t.Fatalf("failure %d (shard %d) follows shard %d: not in shard order", i, f.Shard, er.Workers[i-1].Shard)
		}
		got[f.Shard] = append(got[f.Shard], fmt.Sprint(slices.Index(urls, f.Worker)))
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, hits) {
		t.Fatalf("per-shard attempt order in the 502 = %v, workers saw %v", got, hits)
	}
}

// A job directory written by an earlier release — job.json plus one of
// its two shard checkpoints — must recover under the same job ID, keep
// the checkpoint, recompute only the missing shard and serve the
// synchronous sweep's bytes; and the manifest must re-encode to the
// bytes on disk, so the embedded request changed nothing on the wire.
func TestJobRecoversCommittedJobDirectory(t *testing.T) {
	const id = "f3ec1c94f3d84ba5"
	manifestPath := filepath.Join("testdata", "jobs", id, "job.json")
	onDisk, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var man jobManifest
	if err := readJSONFile(manifestPath, &man); err != nil {
		t.Fatal(err)
	}
	reencoded := filepath.Join(t.TempDir(), "job.json")
	if err := writeJSONFile(reencoded, &man); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(reencoded); err != nil || !bytes.Equal(again, onDisk) {
		t.Fatalf("manifest re-encodes differently (err %v):\n%s\nwant:\n%s", err, again, onDisk)
	}
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}

	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "jobs"))); err != nil {
		t.Fatal(err)
	}
	_, ts := newJobServer(t, dir)
	final := waitJobState(t, ts, id, JobStateDone, 2*time.Minute)
	if !final.Recovered || !final.Shards[0].Recovered || final.Shards[1].Recovered {
		t.Fatalf("recovered job progress = %+v, want shard 0 recovered and shard 1 recomputed", final)
	}
	if _, got := getJSON(t, ts, "/v1/sweeps/"+id+"/result"); !bytes.Equal(got, inProcessSweepBytes(t, jobTestGrid)) {
		t.Fatal("recovered job's result differs from the synchronous sweep")
	}
}

// Terminal jobs past the retention window must be garbage-collected:
// state forgotten, directory removed.
func TestJobRetentionGC(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	dir := t.TempDir()
	s := New(Options{JobDir: dir, JobRetention: 10 * time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	jr := submitJob(t, ts, jobTestGrid, http.StatusAccepted)
	waitJobState(t, ts, jr.ID, JobStateDone, 2*time.Minute)
	time.Sleep(20 * time.Millisecond)
	s.jobs.gcOnce() // the ticker fires every minute; drive one pass directly

	if status, _ := getJSON(t, ts, "/v1/sweeps/"+jr.ID); status != http.StatusNotFound {
		t.Errorf("expired job still answers status %d, want 404", status)
	}
	if _, err := os.Stat(filepath.Join(dir, jr.ID)); !os.IsNotExist(err) {
		t.Errorf("expired job directory still present (err=%v)", err)
	}
}

// A worker streaming an absurdly large shard reply must cost the
// coordinator a bounded read and an ordinary reassignable failure —
// never an unbounded buffer. The healthy worker rescues the shard and
// the sweep still matches the in-process bytes.
func TestCoordinatorBoundsOversizedWorkerReply(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	oneCell := SweepRequest{Widths: []int{32}, WTs: []float64{0.5}}
	want := inProcessSweepBytes(t, oneCell)

	// Valid JSON prefix, then far more bytes than shardReplyLimit(1)
	// allows; the limited decode must cut it off mid-value.
	oversized := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"design_hash":"`)
		junk := bytes.Repeat([]byte("x"), 64<<10)
		var sent int64
		for sent <= shardReplyLimit(1) {
			n, err := w.Write(junk)
			sent += int64(n)
			if err != nil {
				return
			}
		}
		fmt.Fprint(w, `"}`)
	}))
	t.Cleanup(oversized.Close)
	healthy := newWorker(t)

	coord := newCoordinatorServer(t, Options{WorkerURLs: []string{oversized.URL, healthy.URL}, RetryBackoff: time.Millisecond})
	status, got := post(t, coord, "/v1/sweep", oneCell)
	if status != http.StatusOK {
		t.Fatalf("sweep with an oversized worker: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-rescue sweep differs from in-process sweep")
	}
	series := scrape(t, coord)
	if series[`msoc_worker_shards_total{result="error",worker="`+oversized.URL+`"}`] == 0 {
		t.Error("oversized reply not counted as a worker failure")
	}
}

// A panicking handler must become a structured 500 ErrorResponse plus
// an msoc_panics_total increment — and http.ErrAbortHandler must still
// pass through untouched (the deliberate tear-the-connection sentinel).
func TestPanicMiddlewareRecoversIntoStructured500(t *testing.T) {
	s, ts := newTestServer(t)

	mux := http.NewServeMux()
	mux.Handle("GET /boom", s.instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	mux.Handle("GET /abort", s.instrument("/abort", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	faulty := httptest.NewServer(mux)
	t.Cleanup(faulty.Close)

	resp, err := http.Get(faulty.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("500 body not a structured ErrorResponse: %v", err)
	}
	if !strings.Contains(er.Error, "kaboom") {
		t.Errorf("500 error = %q, want the panic value", er.Error)
	}

	// ErrAbortHandler: net/http aborts the connection; the client sees a
	// transport error, not a status, and the panic counter stays put.
	if _, err := http.Get(faulty.URL + "/abort"); err == nil {
		t.Error("ErrAbortHandler produced a response; it must tear the connection")
	}

	series := scrape(t, ts)
	if got := series[`msoc_panics_total`]; got != 1 {
		t.Errorf("msoc_panics_total = %v, want 1 (the kaboom, not the abort)", got)
	}
	if got := series[`msoc_http_requests_total{endpoint="/boom",code="500"}`]; got != 1 {
		t.Errorf("panicking request not counted as a 500: %v", got)
	}
}

// TestReadJSONFileHostileInputs feeds the checkpoint reader the damaged
// files a crashed or hostile producer could leave behind and demands
// each fails loudly, naming the offending path.
func TestReadJSONFileHostileInputs(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := writeJSONFile(good, ShardResponse{DesignHash: "aaaa", Shard: 0, Of: 1}); err != nil {
		t.Fatal(err)
	}
	goodBytes, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	var resp ShardResponse
	if err := readJSONFile(good, &resp); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}

	cases := []struct {
		name, file, data string
		want             string // substring the error must carry
	}{
		{"zero-length file", "empty.json", "", "empty file"},
		{"whitespace-only file", "blank.json", " \n\t", "empty file"},
		{"truncated JSON", "truncated.json", string(goodBytes[:len(goodBytes)/2]), "unexpected end"},
		{"not JSON at all", "garbage.json", "certainly not JSON", "invalid character"},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		var v ShardResponse
		err := readJSONFile(path, &v)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", tc.name)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		case !strings.Contains(err.Error(), path):
			t.Errorf("%s: error %q does not name the path %s", tc.name, err, path)
		}
	}
}

// TestWriteJSONFileAtomic pins the checkpoint durability discipline:
// the write is temp-file-plus-rename, so the destination either holds
// the complete previous content or the complete new content — never a
// torn mix — and no temp litter survives a successful write.
func TestWriteJSONFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.json")
	if err := writeJSONFile(path, map[string]int{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONFile(path, map[string]int{"v": 2}); err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if err := readJSONFile(path, &got); err != nil {
		t.Fatal(err)
	}
	if got["v"] != 2 {
		t.Fatalf("read back %v, want v=2", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after two writes, want only the file itself", len(entries))
	}
}

package service

// The coordinator half of a distributed sweep. A sweep's (widths ×
// weights) cells are mutually independent, so the coordinator
// partitions them round-robin (roundRobin), posts one /v1/shard request
// per shard to the fleet's workers, and reassembles the partial point
// lists into the dense weights-major order an in-process sweep
// returns. The merged response is byte-identical to the in-process one:
// each worker solves its cells through core.SweepOptions.Select
// (subset == full-sweep bits), float64s survive the JSON hop exactly,
// and the merge only permutes — never recomputes — the points.
//
// Worker selection goes through the fleet: shards are homed only on
// currently-assignable workers (healthy first), the shard count is
// capacity-weighted (fleet.assign), and every shard outcome feeds the
// fleet's state machine, so a worker that times out one shard becomes
// suspect for every later assignment decision, fleet-wide.
//
// Failure handling: every shard attempt runs under its own deadline
// (Options.ShardTimeout, additionally capped by the request deadline);
// a worker that errors, answers non-2xx, violates the merge contract,
// or hangs past the deadline is abandoned and the shard reassigned to
// the next-best fleet member after a short exponential backoff
// (Options.RetryBackoff), up to Options.ShardAttempts distinct
// attempts. A shard that exhausts its attempts fails the sweep with a
// 502 carrying every attempt's WorkerFailure.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"mixsoc/internal/core"
)

// maxWorkerErrorBytes bounds how much of a worker's error body the
// coordinator reads back into a WorkerFailure.
const maxWorkerErrorBytes = 4 << 10

// shardReplyAllowancePerCell sizes the coordinator's read bound on a
// worker's shard reply: a solved grid point marshals to a few KB
// (dominated by the per-module wrapper assignments), so 16 KiB per
// requested cell on top of the MaxRequestBytes floor admits every
// legitimate reply while still bounding a misbehaving worker to a few
// tens of MB on the largest permissible grids.
const shardReplyAllowancePerCell = 16 << 10

// shardReplyLimit is the most bytes the coordinator will read of a
// reply carrying `cells` grid points before abandoning the worker —
// the fan-in mirror of the service's own MaxRequestBytes request cap,
// so a worker cannot balloon the coordinator's memory.
func shardReplyLimit(cells int) int64 {
	return int64(MaxRequestBytes) + int64(cells)*shardReplyAllowancePerCell
}

// retryBackoffCap bounds the doubling retry backoff at this many times
// the base Options.RetryBackoff.
const retryBackoffCap = 8

// newFleetTransport builds the one tuned http.Transport the fleet's
// probes and the coordinator's shard fan-out share: connection reuse
// sized for a whole sweep's fan-out (a large sweep re-posts to the same
// few workers hundreds of times; re-dialing each attempt would melt the
// gain of distribution) and bounded dial/TLS handshake waits so a
// black-holed worker costs a deadline, not a hung file descriptor.
func newFleetTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   5 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   64, // ≥ any realistic per-worker shard fan-out
		IdleConnTimeout:       90 * time.Second,
	}
}

// coordinator fans sweep shards out to the fleet's workers and merges
// the partials.
type coordinator struct {
	fleet        *fleet
	client       *http.Client
	shardTimeout time.Duration
	attempts     int           // max distinct attempts per shard; 0 = every current member
	retryBackoff time.Duration // base backoff between a shard's attempts
	metrics      *metricsRegistry

	// sleep waits between shard attempts; replaced in tests with a
	// recording no-op so retry tests stay fast and deterministic.
	sleep func(ctx context.Context, d time.Duration) error
}

// newCoordinator builds the coordinator over the fleet; the server owns
// one even when the fleet starts empty, so workers hot-added through
// POST /v1/workers turn a standalone server into a coordinator without
// a restart.
func newCoordinator(opts Options, fl *fleet, client *http.Client, m *metricsRegistry) *coordinator {
	shardTimeout := opts.ShardTimeout
	if shardTimeout <= 0 {
		shardTimeout = 60 * time.Second
	}
	retryBackoff := opts.RetryBackoff
	if retryBackoff <= 0 {
		retryBackoff = 250 * time.Millisecond
	}
	return &coordinator{
		fleet:        fl,
		client:       client, // per-attempt contexts carry the deadlines
		shardTimeout: shardTimeout,
		attempts:     max(0, opts.ShardAttempts),
		retryBackoff: retryBackoff,
		metrics:      m,
		sleep:        sleepCtx,
	}
}

// sleepCtx sleeps for d or until ctx fires, returning ctx's error in
// the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// distributedSweepError reports a sweep the coordinator could not
// complete, carrying every failed shard attempt; the handler maps it to
// 502 with the failures in the response body.
type distributedSweepError struct {
	failures []WorkerFailure
}

func (e *distributedSweepError) Error() string {
	shards := map[int]bool{}
	for _, f := range e.failures {
		shards[f.Shard] = true
	}
	return fmt.Sprintf("service: distributed sweep failed: %d shard(s) unrecoverable after %d failed attempt(s)",
		len(shards), len(e.failures))
}

// runShards is the one shard runner behind both distributed
// synchronous sweeps and durable jobs. It solves every shard of sp's
// grid, split len(parts) ways, that parts does not already hold: shard
// s goes to the fleet from home homes[s%len(homes)] through
// coordinator.runShard, or — when homes is nil — in-process through
// Server.shard. Each partial lands in parts and, when onShard is set, is
// handed to it as it lands. The caller's homes stand for the whole call:
// re-assigning here could turn a sweep whose fleet just emptied into
// local shards queued behind the very pool slot that sweep holds.
//
// It returns nil once every shard has a partial, ctx's error when ctx
// ended the run, and otherwise a *distributedSweepError whose failures
// are grouped by shard in shard order, each shard's attempts in the
// order they ran.
func (s *Server) runShards(ctx context.Context, sp *sweepSpec, req SweepRequest, homes []string, parts []*ShardResponse, onShard func(shard int, resp *ShardResponse)) error {
	// Shards carry the normalized axes and no client deadline: every
	// attempt runs under its own shard deadline.
	req.WTs, req.TimeoutMS = sp.wts, 0
	failures := make([][]WorkerFailure, len(parts))
	var wg sync.WaitGroup
	for shard, have := range parts {
		if have != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			shardReq := ShardRequest{SweepRequest: req, Shard: shard, Of: len(parts)}
			if homes != nil {
				parts[shard], failures[shard] = s.coord.runShard(ctx, sp, shardReq, homes[shard%len(homes)])
			} else if resp, err := s.shard(ctx, shardReq); err != nil {
				failures[shard] = []WorkerFailure{{Shard: shard, Error: err.Error()}}
			} else {
				parts[shard] = resp
			}
			if parts[shard] != nil && onShard != nil {
				onShard(shard, parts[shard])
			}
		}()
	}
	wg.Wait()
	if !slices.Contains(parts, nil) {
		return nil
	}
	if err := ctx.Err(); err != nil {
		// The request itself died (deadline, client abort or shutdown);
		// report that, not a worker failure.
		return err
	}
	return &distributedSweepError{failures: slices.Concat(failures...)}
}

// mergeShards places a complete set of round-robin partials into the
// dense weights-major point list: shard s owns cells s, s+of, s+2·of, …
// in order, so the j-th point of shard s lands at cell s + j·of.
// Placement is all that happens here — every partial already passed the
// merge contract (verifyShardPartial) or came from Server.shard — so the
// merged bytes equal an unsharded sweep's.
func mergeShards(sp *sweepSpec, parts []*ShardResponse) *SweepResponse {
	points := make([]core.SweepPoint, sp.cells())
	for shard, part := range parts {
		for j, pt := range part.Points {
			points[shard+j*len(parts)] = pt
		}
	}
	return &SweepResponse{DesignHash: sp.hash, Points: points}
}

// runShard computes one shard on the fleet: the home worker gets the
// first attempt, and each failure reassigns the shard to the next-best
// untried member (fleet.nextWorker — freshly consulted per attempt, so
// evictions and hot-adds during the sweep steer the retries) after an
// exponentially growing backoff. Every outcome feeds the fleet's state
// machine. A nil response means the shard failed; the failures say why,
// and runShards tells a dead request context apart from them.
func (c *coordinator) runShard(ctx context.Context, sp *sweepSpec, req ShardRequest, home string) (*ShardResponse, []WorkerFailure) {
	want, err := roundRobin(sp.cells(), req.Shard, req.Of)
	if err != nil {
		return nil, []WorkerFailure{{Shard: req.Shard, Error: err.Error()}}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, []WorkerFailure{{Shard: req.Shard, Error: err.Error()}}
	}

	// attempts == 0 means "every current member once": the loop runs
	// until nextWorker exhausts the membership, re-checked per attempt —
	// so a worker hot-added while this shard's first attempt hangs still
	// widens the retry budget and can rescue the shard.
	tried := map[string]bool{}
	var failures []WorkerFailure
	for attempt := 0; c.attempts == 0 || attempt < c.attempts; attempt++ {
		worker := c.fleet.nextWorker(home, tried)
		if worker == "" {
			break // every current member tried
		}
		tried[worker] = true
		if attempt > 0 {
			backoff := c.retryBackoff << min(attempt-1, retryBackoffCap)
			if c.sleep(ctx, backoff) != nil {
				break
			}
		}
		resp, failure := c.post(ctx, worker, req.Shard, req.Of, body, sp, want)
		if failure == nil {
			c.fleet.reportSuccess(worker, 0)
			return resp, failures
		}
		c.fleet.reportFailure(worker, failure.Error)
		failures = append(failures, *failure)
		if ctx.Err() != nil {
			// The request deadline (or the client) killed the sweep;
			// reassignment cannot help.
			break
		}
	}
	return nil, failures
}

// post runs one shard attempt against one worker under the per-shard
// deadline and validates the partial against the whole merge contract
// — matching design hash, shard geometry, point count, and every
// point's grid coordinate (want holds the shard's dense cell indices)
// — so a contract violation is an ordinary worker failure the caller
// reassigns, with the drifted worker named in the detail.
func (c *coordinator) post(ctx context.Context, worker string, shard, of int, body []byte, sp *sweepSpec, want []int) (*ShardResponse, *WorkerFailure) {
	start := time.Now()
	fail := func(result, format string, args ...any) *WorkerFailure {
		c.metrics.observeShard(worker, result, time.Since(start))
		return &WorkerFailure{Worker: worker, Shard: shard, Error: fmt.Sprintf(format, args...)}
	}

	attemptCtx, cancel := context.WithTimeout(ctx, c.shardTimeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, worker+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, fail(shardResultError, "building request: %v", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := c.client.Do(httpReq)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			return nil, fail(shardResultTimeout, "shard deadline (%s) exceeded", c.shardTimeout)
		}
		return nil, fail(shardResultError, "post: %v", err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, maxWorkerErrorBytes))
		return nil, fail(shardResultError, "status %d: %s", httpResp.StatusCode, strings.TrimSpace(string(msg)))
	}
	// Bound the reply read (the fan-in mirror of MaxRequestBytes): a
	// worker streaming more than the shard could legitimately weigh is
	// cut off mid-value, which surfaces here as a decode error and an
	// ordinary reassignable failure — never an unbounded read.
	var resp ShardResponse
	if err := json.NewDecoder(io.LimitReader(httpResp.Body, shardReplyLimit(len(want)))).Decode(&resp); err != nil {
		return nil, fail(shardResultError, "decoding partial (replies are capped at %d bytes): %v", shardReplyLimit(len(want)), err)
	}
	if err := verifyShardPartial(sp, shard, of, want, &resp); err != nil {
		return nil, fail(shardResultError, "%v", err)
	}
	c.metrics.observeShard(worker, shardResultOK, time.Since(start))
	return &resp, nil
}

// verifyShardPartial is the merge contract every shard partial must
// pass before anyone trusts it, live or persisted: the design hash the
// worker computed matches the coordinator's, the shard geometry and
// point count match the round-robin slice (want holds the shard's
// dense cell indices), and every point sits on its expected grid
// coordinate. coordinator.post applies it to worker replies; job
// recovery applies the identical check to checkpoints read back from
// disk.
func verifyShardPartial(sp *sweepSpec, shard, of int, want []int, resp *ShardResponse) error {
	switch {
	case resp.DesignHash != sp.hash:
		return fmt.Errorf("merge conflict: worker hashed the design %s, coordinator %s", resp.DesignHash, sp.hash)
	case resp.Shard != shard || resp.Of != of || len(resp.Points) != len(want):
		return fmt.Errorf("merge conflict: got shard %d/%d with %d points, want shard %d with %d",
			resp.Shard, resp.Of, len(resp.Points), shard, len(want))
	}
	for j, pt := range resp.Points {
		i := want[j]
		wantW := sp.widths[i%len(sp.widths)]
		wantWt := sp.weights[i/len(sp.widths)]
		if pt.Width != wantW || pt.Weights != wantWt {
			return fmt.Errorf("merge conflict: point %d is (W=%d, wT=%v), want (W=%d, wT=%v)",
				j, pt.Width, pt.Weights.Time, wantW, wantWt.Time)
		}
	}
	return nil
}

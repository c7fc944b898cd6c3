package service

// POST /v1/batch: many plan requests in one call. The batch endpoint
// exists for clients that price a family of designs in one shot — a
// generated SOC population, a design revision against its baseline —
// where per-request HTTP round trips and duplicate work dominate. Each
// item runs the exact POST /v1/plan code path (Server.plan), so a
// successful item's response is byte-identical to the response the same
// request would get on its own; items that answer identically (same
// design hash, width, weight bits and solver flags) are deduplicated
// onto one planning execution. Items draw slots from the server's
// bounded worker pool individually — the batch handler itself never
// holds a slot, so a batch wider than the pool cannot deadlock it; the
// pool just drains the batch at its usual concurrency.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"

	"mixsoc/internal/core"
)

// MaxBatchItems bounds the plan requests of one POST /v1/batch call.
const MaxBatchItems = 256

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// Items are the plan requests to answer, in order. Each item's
	// fields mean exactly what they mean on POST /v1/plan, except
	// timeout_ms, which is ignored per item: the batch-level TimeoutMS
	// is the one deadline the whole call runs under.
	Items []PlanRequest `json:"items"`
	// TimeoutMS caps the whole batch's planning time in milliseconds; 0
	// inherits the server default. Values above the server cap are
	// clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchItem is one item's outcome inside a BatchResponse.
type BatchItem struct {
	// Status is the HTTP status the same request would have received
	// from POST /v1/plan: 200 with Response set, or an error status
	// with Error set.
	Status int `json:"status"`
	// Response is the item's plan, byte-identical to the corresponding
	// POST /v1/plan response body. Present exactly when Status is 200.
	Response *PlanResponse `json:"response,omitempty"`
	// Error describes the failure when Status is not 200.
	Error string `json:"error,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batch. The call
// itself answers 200 whenever the batch was well-formed; per-item
// failures are reported in their BatchItem, not as a call failure.
type BatchResponse struct {
	// Items are the outcomes, index-aligned with the request's items.
	Items []BatchItem `json:"items"`
	// Deduped counts the items answered by another item's execution:
	// requests with the same design content, width, weights and solver
	// flags plan once and share the result.
	Deduped int `json:"deduped,omitempty"`
}

// batchTask is one deduplicated planning execution and its outcome.
type batchTask struct {
	item   PlanRequest
	design *core.Design // as the dedup pass resolved it; nil if that failed
	hash   string
	resp   *PlanResponse
	err    error
}

// batchKey is the dedup identity of a plan request whose design hashes
// to hash: everything the response bytes depend on.
func batchKey(item PlanRequest, hash string) string {
	wt := 0.5
	if item.WT != nil {
		wt = *item.WT
	}
	return fmt.Sprintf("%s|%d|%016x|%t|%t|%s", hash, item.Width, math.Float64bits(wt), item.Exhaustive, item.Bounded, item.Backend)
}

// Batch computes the response of POST /v1/batch for req — the exact
// code path the HTTP handler runs. Every unique item fans out through
// Server.Plan's code path concurrently, on the design the dedup pass
// resolved; the pool's MaxConcurrent bound (not the batch width) sets
// how many plan at once.
func (s *Server) Batch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	if len(req.Items) == 0 {
		return nil, badRequestf("batch needs at least one item")
	}
	if len(req.Items) > MaxBatchItems {
		return nil, badRequestf("batch of %d items exceeds the %d-item bound", len(req.Items), MaxBatchItems)
	}
	ctx, cancel := s.requestCtx(ctx, req.TimeoutMS)
	defer cancel()

	// Resolve each item once and group identically-answering items onto
	// one execution each. Unresolvable items become singletons keyed by
	// index, and their plan resolves again to report its own error.
	keys := make([]string, len(req.Items))
	tasks := make(map[string]*batchTask, len(req.Items))
	order := make([]string, 0, len(req.Items))
	for i, item := range req.Items {
		d, hash, err := s.resolve(item.Design, item.SOC, item.Benchmark)
		key := batchKey(item, hash)
		if err != nil {
			key = fmt.Sprintf("#%d", i)
		}
		keys[i] = key
		if tasks[key] == nil {
			tasks[key] = &batchTask{item: item, design: d, hash: hash}
			order = append(order, key)
		}
	}

	var wg sync.WaitGroup
	for _, key := range order {
		tk := tasks[key]
		wg.Add(1)
		go func() {
			defer wg.Done()
			item := tk.item
			item.TimeoutMS = 0 // the batch deadline in ctx governs
			tk.resp, tk.err = s.plan(ctx, item, tk.design, tk.hash)
		}()
	}
	wg.Wait()

	resp := &BatchResponse{
		Items:   make([]BatchItem, len(req.Items)),
		Deduped: len(req.Items) - len(order),
	}
	planned, failed := 0, 0
	for i, key := range keys {
		tk := tasks[key]
		if tk.err != nil {
			status, _ := statusFor(tk.err)
			resp.Items[i] = BatchItem{Status: status, Error: tk.err.Error()}
			failed++
			continue
		}
		resp.Items[i] = BatchItem{Status: http.StatusOK, Response: tk.resp}
		planned++
	}
	s.metrics.batchItems.add(batchItemOK, float64(planned))
	s.metrics.batchItems.add(batchItemDeduped, float64(resp.Deduped))
	s.metrics.batchItems.add(batchItemError, float64(failed))
	return resp, nil
}

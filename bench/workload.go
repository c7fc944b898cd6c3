package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"mixsoc/internal/core"
	"mixsoc/internal/itc02"
	"mixsoc/internal/service"
	"mixsoc/internal/socgen"
)

// workload is one traffic mix. Every workload is a closed loop: the
// planner's callers are tools and CI jobs that wait for each plan before
// sending the next request.
type workload struct {
	name    string
	path    string  // endpoint every request is POSTed to
	clients int     // closed-loop clients (one keep-alive connection each)
	tailQ   float64 // the tail percentile latency_tail_ms reports
	traceK  int     // requests the traced phase replays
	// oracleN is the cold-recompute sample; plan-hot recomputes every
	// distinct body instead.
	oracleN int
	// fill is how many of a cold stream's first requests the set-up
	// sends, about 0.1 s of work, so that setup_s is well above timer
	// and scheduler noise; plan-hot's set-up sends every distinct body
	// instead.
	fill int
	// heapAfter is how many requests of the stream fill the engine's
	// cross-design caches, with a third to spare: the 4096-entry module
	// staircase store is full after about 190 fresh Medium designs or
	// 110 near-duplicate batches. heap_mb is read only after them.
	heapAfter int
	kind      kind
	// requests builds the seeded request stream.
	requests func(seed int64, scale float64) (*requests, error)
}

// workloads are the benchmark's traffic mixes, in run order. The tail
// percentiles are chosen so that a default-length run leaves at least
// minTailSamples beyond them.
var workloads = []*workload{
	// plan-hot: after the fill pass every session and schedule is cached,
	// so the time goes to HTTP, JSON, design resolution, hashing,
	// candidate enumeration and planner replay while packing does no
	// work. Per-request-overhead optimizations show here; packing
	// optimizations must show nothing.
	{name: "plan-hot", path: "/v1/plan", clients: 2, tailQ: 0.99, traceK: 2000, kind: planKind{}, requests: planHot},
	// plan-cold: the paper's own setup (an ITC'02-style SOC plus the
	// five paper analog cores) on never-seen SOCs, so every cache
	// misses and the occupancy packer and wrapper staircases dominate.
	// Packing and wrapper optimizations show here; cache-hit-path
	// optimizations must cost nothing here.
	{name: "plan-cold", path: "/v1/plan", clients: 2, tailQ: 0.99, traceK: 200, oracleN: 64, fill: 16, heapAfter: 250, kind: planKind{}, requests: planCold},
	// sweep-cold: one request shares schedules across weights and the
	// bound prunes candidates. Under msoc-serve's default worker split a
	// request gets one inner worker, so with one client the second CPU
	// idles: intra-request parallelism and bound changes show here, not
	// on plan-cold, where two clients already saturate both CPUs.
	{name: "sweep-cold", path: "/v1/sweep", clients: 1, tailQ: 0.90, traceK: 20, oracleN: 8, fill: 4, heapAfter: 250, kind: sweepKind{}, requests: sweepCold},
	// batch-neardup: batch dedup and the cross-design module caches serve
	// the unchanged modules (reads) while every revision inserts new
	// staircase and job entries (writes) — the cache layers used unlike
	// plan-hot (pure reads) and plan-cold (pure misses).
	{name: "batch-neardup", path: "/v1/batch", clients: 1, tailQ: 0.90, traceK: 20, oracleN: 8, fill: 4, heapAfter: 150, kind: batchKind{}, requests: batchNearDup},
}

func workloadNamed(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// requests is a workload's seeded request stream. Request i's body is a
// pure function of (seed, i), so the traced phase and the oracles can
// regenerate any request the clients sent.
type requests struct {
	fixed [][]byte                    // plan-hot: the distinct bodies, cycled in this order
	gen   func(i int) ([]byte, error) // cold workloads: a fresh body per index
}

// body returns request i's body.
func (r *requests) body(i int) ([]byte, error) {
	if r.fixed != nil {
		return r.fixed[i%len(r.fixed)], nil
	}
	return r.gen(i)
}

// key identifies request i's body among the stream's distinct bodies.
func (r *requests) key(i int) int {
	if r.fixed != nil {
		return i % len(r.fixed)
	}
	return i
}

// scaled multiplies a count by the -scale factor, keeping at least lo.
func scaled(n int, scale float64, lo int) int {
	return max(lo, int(math.Round(float64(n)*scale)))
}

// The plan-hot grid: every registry benchmark the paper's cores fit, at
// the Table 3 widths and three weightings.
var (
	hotBenchmarks = []string{"p93791m", "d695m", "g1023m", "t512505m"}
	hotWidths     = []int{32, 48, 64}
	hotWTs        = []float64{0.25, 0.5, 0.75}
	sweepWidths   = []int{16, 24, 32, 40, 48, 56, 64}
)

// nearDupRevisions is how many revisions of one design a batch carries;
// each is listed twice, so half of every batch is deduplicated.
const nearDupRevisions = 16

// planHot is the 36-body benchmark grid in a seeded shuffle; -scale
// below 1 keeps a prefix of the shuffle (at least two bodies).
func planHot(seed int64, scale float64) (*requests, error) {
	var bodies [][]byte
	for _, b := range hotBenchmarks {
		for _, w := range hotWidths {
			for _, wt := range hotWTs {
				body, err := json.Marshal(service.PlanRequest{Benchmark: b, Width: w, WT: &wt})
				if err != nil {
					return nil, err
				}
				bodies = append(bodies, body)
			}
		}
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(bodies))
	fixed := make([][]byte, min(len(bodies), scaled(len(bodies), scale, 2)))
	for i := range fixed {
		fixed[i] = bodies[perm[i]]
	}
	return &requests{fixed: fixed}, nil
}

// planCold uploads a fresh Medium SOC per request in the .soc text
// format, W=32, wT=0.5.
func planCold(seed int64, _ float64) (*requests, error) {
	wt := 0.5
	return &requests{gen: func(i int) ([]byte, error) {
		opt := mediumOptions(seed, i)
		soc, err := socgen.GenerateSOC(opt)
		if err != nil {
			return nil, err
		}
		return json.Marshal(service.PlanRequest{SOC: itc02.Format(soc), Width: 32, WT: &wt})
	}}, nil
}

// sweepCold sends a fresh Medium design inline per request, swept over
// seven widths and three weightings with the exhaustive bounded solver.
func sweepCold(seed int64, _ float64) (*requests, error) {
	return &requests{gen: func(i int) ([]byte, error) {
		d, err := socgen.Generate(mediumOptions(seed, i))
		if err != nil {
			return nil, err
		}
		design, err := core.MarshalDesign(d)
		if err != nil {
			return nil, err
		}
		return json.Marshal(service.SweepRequest{Design: design, Widths: sweepWidths, WTs: hotWTs, Exhaustive: true, Bounded: true})
	}}, nil
}

// batchNearDup batches the revisions of a fresh Medium design at W=24:
// revision 0 is the design itself and revision v bumps the pattern count
// of core v-1 by v. Every revision is listed twice.
func batchNearDup(seed int64, _ float64) (*requests, error) {
	return &requests{gen: func(i int) ([]byte, error) {
		base, err := socgen.Generate(mediumOptions(seed, i))
		if err != nil {
			return nil, err
		}
		items := make([]service.PlanRequest, 2*nearDupRevisions)
		for v := range nearDupRevisions {
			d := base
			if v > 0 {
				if d, err = core.CloneDesign(base); err != nil {
					return nil, err
				}
				d.Name = fmt.Sprintf("%s-rev%d", base.Name, v)
				cores := d.Digital.Cores()
				cores[(v-1)%len(cores)].Tests[0].Patterns += v
			}
			design, err := core.MarshalDesign(d)
			if err != nil {
				return nil, err
			}
			items[v] = service.PlanRequest{Design: design, Width: 24}
			items[v+nearDupRevisions] = items[v]
		}
		return json.Marshal(service.BatchRequest{Items: items})
	}}, nil
}

// mediumOptions draws request i's Medium design. The module and analog
// core counts are stratified over the class ranges (16-28 modules, 3-4
// analog cores) rather than drawn, so that runs with different seeds
// average over the same size mix and their means agree closely.
func mediumOptions(seed int64, i int) socgen.Options {
	return socgen.Options{
		Seed:        streamSeed(seed, i),
		Class:       socgen.Medium,
		Modules:     16 + i%13,
		AnalogCores: 3 + i%2,
	}
}

// streamSeed derives request i's generator seed from the run seed with
// the splitmix64 finalizer, so neighbouring seeds share no designs.
func streamSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// kind is what the traced phase and the oracles need to know about an
// endpoint's request type.
type kind interface {
	// decode parses a body as the service's handler does.
	decode(body []byte) (any, error)
	// call answers the request through the server's exported entry
	// point — the code the handler runs, without HTTP.
	call(ctx context.Context, s *service.Server, req any) (any, error)
	// oracle recomputes the response with one-shot cold library calls.
	oracle(req any) (any, error)
	// decompose replays the request layer by layer under root.
	decompose(ctx context.Context, dc *decomposer, trace, root int, req any) (any, error)
	// work sums NEval and Pruned over the response's distinct plans.
	work(resp any) (neval, pruned int)
}

// decodeStrict decodes a body into a T, rejecting unknown fields as the
// service's decodeBody does.
func decodeStrict[T any](body []byte) (*T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

type planKind struct{}

func (planKind) decode(body []byte) (any, error) { return decodeStrict[service.PlanRequest](body) }

func (planKind) call(ctx context.Context, s *service.Server, req any) (any, error) {
	return s.Plan(ctx, *req.(*service.PlanRequest))
}

func (planKind) oracle(req any) (any, error) { return oraclePlan(*req.(*service.PlanRequest)) }

func (planKind) decompose(ctx context.Context, dc *decomposer, trace, root int, req any) (any, error) {
	r := req.(*service.PlanRequest)
	d, h, err := dc.resolve(trace, root, r.Design, r.SOC, r.Benchmark)
	if err != nil {
		return nil, err
	}
	return dc.plan(ctx, trace, root, dc.session(h, d), h, *r)
}

func (planKind) work(resp any) (int, int) {
	r := resp.(*service.PlanResponse).Result
	return r.NEval, r.Pruned
}

type sweepKind struct{}

func (sweepKind) decode(body []byte) (any, error) { return decodeStrict[service.SweepRequest](body) }

func (sweepKind) call(ctx context.Context, s *service.Server, req any) (any, error) {
	return s.Sweep(ctx, *req.(*service.SweepRequest))
}

func (sweepKind) oracle(req any) (any, error) { return oracleSweep(*req.(*service.SweepRequest)) }

func (sweepKind) decompose(ctx context.Context, dc *decomposer, trace, root int, req any) (any, error) {
	return dc.sweep(ctx, trace, root, *req.(*service.SweepRequest))
}

func (sweepKind) work(resp any) (neval, pruned int) {
	for _, p := range resp.(*service.SweepResponse).Points {
		neval += p.Result.NEval
		pruned += p.Result.Pruned
	}
	return neval, pruned
}

type batchKind struct{}

func (batchKind) decode(body []byte) (any, error) { return decodeStrict[service.BatchRequest](body) }

func (batchKind) call(ctx context.Context, s *service.Server, req any) (any, error) {
	return s.Batch(ctx, *req.(*service.BatchRequest))
}

func (batchKind) oracle(req any) (any, error) { return oracleBatch(*req.(*service.BatchRequest)) }

func (batchKind) decompose(ctx context.Context, dc *decomposer, trace, root int, req any) (any, error) {
	return dc.batch(ctx, trace, root, *req.(*service.BatchRequest))
}

// work counts each deduplicated plan once: deduplicated items share
// their execution's response.
func (batchKind) work(resp any) (neval, pruned int) {
	seen := map[*service.PlanResponse]bool{}
	for _, it := range resp.(*service.BatchResponse).Items {
		if it.Response == nil || seen[it.Response] {
			continue
		}
		seen[it.Response] = true
		neval += it.Response.Result.NEval
		pruned += it.Response.Result.Pruned
	}
	return neval, pruned
}

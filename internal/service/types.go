package service

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/experiments"
	"mixsoc/internal/itc02"
	"mixsoc/internal/registry"
)

// Request size and grid bounds enforced by validation, so one request
// cannot monopolize the service.
const (
	// MaxRequestBytes bounds the request body, dominated by inline
	// designs (the paper benchmark marshals to ~8 KB).
	MaxRequestBytes = 4 << 20
	// MaxWidth bounds the TAM width of any request.
	MaxWidth = 4096
	// MaxSweepCells bounds len(widths) × len(weights) of one sweep.
	MaxSweepCells = 4096
	// MaxSOCBytes bounds an uploaded .soc body (the biggest embedded
	// benchmark formats to ~15 KB; 1 MiB leaves two orders of headroom).
	MaxSOCBytes = 1 << 20
	// MaxSOCModules bounds an uploaded SOC's module count — the guard
	// against bodies that parse fine but describe absurd designs whose
	// packing would monopolize the planner.
	MaxSOCModules = 1024
	// MaxAnalogCores bounds any design's analog-core count: planning
	// enumerates all Bell(n) partitions of the analog cores, 4,140 at
	// the cap but 27.6 million at 13 cores.
	MaxAnalogCores = 8
)

// BenchmarkP93791M names the built-in paper benchmark design, the
// default when a request carries no inline design.
const BenchmarkP93791M = "p93791m"

// PlanRequest is the body of POST /v1/plan.
type PlanRequest struct {
	// Design is an inline design in the canonical core.MarshalDesign
	// JSON form; empty means the SOC upload or the named Benchmark.
	Design json.RawMessage `json:"design,omitempty"`
	// SOC is an uploaded digital SOC in the ITC'02-style .soc text
	// format; the paper's five analog cores are attached, exactly as
	// msoc-plan -soc does. At most one of Design, SOC and Benchmark may
	// be given.
	SOC string `json:"soc,omitempty"`
	// Benchmark names a built-in registry design ("p93791m", "d695m",
	// "t512505m", ...); empty with no Design and no SOC means p93791m.
	Benchmark string `json:"benchmark,omitempty"`
	// Width is the SOC-level TAM width W.
	Width int `json:"width"`
	// WT is the test-time cost weight wT (wA = 1 − wT); nil means 0.5.
	WT *float64 `json:"wt,omitempty"`
	// Exhaustive selects the exhaustive baseline instead of the
	// Cost_Optimizer heuristic.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Bounded enables branch-and-bound pruning: the planner skips
	// packing candidates whose cost lower bound cannot beat the
	// incumbent. The best cost and selection are bit-identical to an
	// unbounded plan; neval shrinks and the result carries a Pruned
	// count.
	Bounded bool `json:"bounded,omitempty"`
	// Backend selects the packing backend: "occupancy" (the default
	// algorithm), "rectangle" (diagonal-ordered rectangle bin packing),
	// or "tournament" (every backend packs, the best makespan wins).
	// Empty means the default occupancy path with byte-identical
	// responses; an unknown name is a 400.
	Backend string `json:"backend,omitempty"`
	// TimeoutMS caps this request's planning time in milliseconds; 0
	// inherits the server default. Values above the server cap are
	// clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// PlanResponse is the body of a successful POST /v1/plan — the exact
// core.Result a direct library call returns, plus the design's content
// hash (the engine cache key) and the grid coordinate.
type PlanResponse struct {
	// DesignHash is the content hash the engine cached the design under.
	DesignHash string `json:"design_hash"`
	// Width echoes the planned TAM width.
	Width int `json:"width"`
	// Weights echoes the cost weights the plan used.
	Weights core.Weights `json:"weights"`
	// Result is the planning outcome, bit-identical to mixsoc.Plan.
	Result *core.Result `json:"result"`
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	// Design is an inline design; see PlanRequest.Design.
	Design json.RawMessage `json:"design,omitempty"`
	// SOC is an uploaded .soc body; see PlanRequest.SOC.
	SOC string `json:"soc,omitempty"`
	// Benchmark names a built-in design; see PlanRequest.Benchmark.
	Benchmark string `json:"benchmark,omitempty"`
	// Widths are the TAM widths to sweep.
	Widths []int `json:"widths"`
	// WTs are the test-time weights to sweep (each with wA = 1 − wT);
	// empty means the single balanced setting 0.5.
	WTs []float64 `json:"wts,omitempty"`
	// Exhaustive selects the exhaustive baseline per grid point.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Bounded enables branch-and-bound pruning per grid point; see
	// PlanRequest.Bounded.
	Bounded bool `json:"bounded,omitempty"`
	// WarmStart chains TAM packings across widths — faster, but
	// makespans may deviate a few percent from a cold sweep (see
	// core.SweepOptions.WarmStart); cold results are bit-identical to
	// direct mixsoc.SweepWith calls.
	WarmStart bool `json:"warm_start,omitempty"`
	// Backend selects the packing backend for every grid point; see
	// PlanRequest.Backend.
	Backend string `json:"backend,omitempty"`
	// TimeoutMS caps this request's planning time; see
	// PlanRequest.TimeoutMS.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	// DesignHash is the content hash the engine cached the design under.
	DesignHash string `json:"design_hash"`
	// Points are the solved grid points in weights-major order, each
	// bit-identical to the corresponding direct mixsoc.SweepWith point
	// (cold sweeps).
	Points []core.SweepPoint `json:"points"`
}

// ShardRequest is the body of POST /v1/shard — the worker half of a
// distributed sweep. It is the coordinator's full sweep — design bytes
// forwarded verbatim, so the worker resolves and hashes the identical
// design, and the full (widths × wts) axes, not just this shard's —
// plus this worker's round-robin slice of it, so every worker derives
// the same cell numbering without coordination (the roundRobin rule).
// Shards solve cold: warm_start is a 400.
type ShardRequest struct {
	SweepRequest
	// Shard is this worker's index in the round-robin split: it owns the
	// weights-major cells shard, shard+of, shard+2·of, ….
	Shard int `json:"shard"`
	// Of is the total number of shards in the split.
	Of int `json:"of"`
}

// ShardResponse is the body of a successful POST /v1/shard: the shard's
// cells solved cold, in weights-major order of the full grid restricted
// to the shard — exactly the order the coordinator's merge expects.
type ShardResponse struct {
	// DesignHash is the worker's content hash of the resolved design;
	// the coordinator rejects a merge whose workers disagree on it.
	DesignHash string `json:"design_hash"`
	// Shard echoes the request's shard index.
	Shard int `json:"shard"`
	// Of echoes the request's shard count.
	Of int `json:"of"`
	// Points are the owned cells' solutions, each bit-identical to the
	// corresponding point of an unsharded cold sweep
	// (core.SweepOptions.Select pins that equality).
	Points []core.SweepPoint `json:"points"`
}

// WorkerFailure records one failed shard attempt of a distributed
// sweep: which worker, which shard, and why. A coordinator that cannot
// complete a sweep returns every attempt's failure in the 502 body.
type WorkerFailure struct {
	// Worker is the base URL of the worker that failed.
	Worker string `json:"worker"`
	// Shard is the round-robin shard index the attempt carried.
	Shard int `json:"shard"`
	// Error describes the failure: a transport error, a non-2xx status
	// with the worker's error body, a shard deadline, or a merge-contract
	// violation.
	Error string `json:"error"`
}

// HealthResponse is the body of GET /healthz. Beyond liveness it
// advertises the server's planning capacity, which a coordinator's
// fleet probes read to weight shard assignment across workers.
type HealthResponse struct {
	// OK is true on a live server.
	OK bool `json:"ok"`
	// Capacity is the server's total CPU budget (the resolved -workers
	// value, i.e. its SplitWorkers pool size).
	Capacity int `json:"capacity"`
	// MaxConcurrent is the server's planning-request concurrency bound.
	MaxConcurrent int `json:"max_concurrent"`
}

// WorkerInfo is one fleet member's live lifecycle state, as reported by
// GET /v1/workers and POST /v1/workers.
type WorkerInfo struct {
	// URL is the worker's normalized base URL (the fleet key).
	URL string `json:"url"`
	// State is the lifecycle state: "healthy", "suspect" or "evicted".
	State string `json:"state"`
	// Source records how the worker joined: "static" (-worker-urls),
	// "file" (-worker-file) or "api" (POST /v1/workers).
	Source string `json:"source"`
	// Capacity is the worker's advertised CPU budget (1 until the first
	// successful probe reports a real value); shard assignment is
	// weighted by it.
	Capacity int `json:"capacity"`
	// ConsecutiveFailures counts probe/shard failures since the last
	// success; reaching the threshold evicts the worker.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// LastError is the most recent failure's description; empty after a
	// success.
	LastError string `json:"last_error,omitempty"`
	// LastOK is the RFC 3339 time of the last successful probe or shard;
	// empty before the first.
	LastOK string `json:"last_ok,omitempty"`
}

// WorkersResponse is the body of GET /v1/workers and of a successful
// POST /v1/workers: the fleet's membership in admission order.
type WorkersResponse struct {
	// Workers lists every fleet member's live state.
	Workers []WorkerInfo `json:"workers"`
}

// WorkersUpdateRequest is the body of POST /v1/workers: a membership
// change. Adds are applied before removes; adding a known URL or
// removing an unknown one is a no-op.
type WorkersUpdateRequest struct {
	// Add lists worker base URLs to admit (absolute http(s) URLs).
	Add []string `json:"add,omitempty"`
	// Remove lists worker base URLs to drop from the fleet.
	Remove []string `json:"remove,omitempty"`
}

// BenchmarkInfo describes one built-in benchmark a request's Benchmark
// field can name, as listed by GET /v1/designs.
type BenchmarkInfo struct {
	// Name is the registry key to put in a request's benchmark field.
	Name string `json:"name"`
	// Description is a one-line summary of the design.
	Description string `json:"description"`
	// Modules counts the digital modules, including the SOC-level
	// module 0.
	Modules int `json:"modules"`
	// AnalogCores counts the embedded analog cores; entries with 0 are
	// digital-only and cannot be planned (use the "m" variant).
	AnalogCores int `json:"analog_cores"`
	// TestVolume is the digital test-data volume in bit-cycles.
	TestVolume int64 `json:"test_volume"`
}

// DesignsResponse is the body of GET /v1/designs: the built-in
// benchmark registry, the engine's live cache sessions, and its
// cache-efficiency counters.
type DesignsResponse struct {
	// Benchmarks lists every built-in benchmark requests can name.
	Benchmarks []BenchmarkInfo `json:"benchmarks"`
	// Designs lists the live cache sessions, most recently used first.
	Designs []core.DesignInfo `json:"designs"`
	// Metrics aggregates the engine's cache counters.
	Metrics core.EngineMetrics `json:"metrics"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// Error is a human-readable description of what the request got
	// wrong (4xx) or what failed (5xx).
	Error string `json:"error"`
	// Workers details every failed shard attempt when a distributed
	// sweep could not complete (502 only); empty otherwise.
	Workers []WorkerFailure `json:"workers,omitempty"`
}

// badRequestError marks validation failures so the handler maps them to
// 400 instead of 500.
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return badRequestError{msg: fmt.Sprintf(format, args...)}
}

// resolveDesign turns a request's design fields into a *Design and its
// content hash (core.DesignHash): an inline canonical-JSON design, an
// uploaded .soc body (digital SOC plus the paper's analog cores), a
// named registry benchmark, or the default p93791m. At most one source
// may be given, and the design may have at most MaxAnalogCores analog
// cores.
func resolveDesign(inline json.RawMessage, soc, benchmark string) (*core.Design, string, error) {
	sources := 0
	for _, given := range []bool{len(inline) > 0, soc != "", benchmark != ""} {
		if given {
			sources++
		}
	}
	if sources > 1 {
		return nil, "", badRequestf("give at most one of an inline design, a .soc upload, and a benchmark name")
	}
	var d *core.Design
	var err error
	switch {
	case len(inline) > 0:
		if d, err = core.UnmarshalDesign(inline); err != nil {
			err = badRequestf("bad inline design: %v", err)
		}
	case soc != "":
		d, err = resolveSOC(soc)
	case benchmark == "" || benchmark == BenchmarkP93791M:
		// The default benchmark keeps resolving through the experiments
		// package, pinning served p93791m bytes to the golden tables' SOC.
		d = experiments.Design()
	default:
		if d, err = registry.Lookup(benchmark); err != nil {
			err = badRequestf("%v", err)
		} else if len(d.Analog) == 0 {
			err = badRequestf("benchmark %q is digital-only and cannot be planned; use %q", benchmark, benchmark+"m")
		}
	}
	if err != nil {
		return nil, "", err
	}
	if len(d.Analog) > MaxAnalogCores {
		return nil, "", badRequestf("design with %d analog cores exceeds the %d-core bound", len(d.Analog), MaxAnalogCores)
	}
	hash, err := core.DesignHash(d)
	if err != nil {
		return nil, "", err
	}
	return d, hash, nil
}

// memoDesign is a registry benchmark's resolveDesign result.
type memoDesign struct {
	once   sync.Once
	design *core.Design
	hash   string
	err    error
}

// resolve is resolveDesign with registry benchmarks resolved once per
// server, into a memo whose key set New fixes. A memoized design is
// shared and must not be mutated; the engine plans on its own clone.
func (s *Server) resolve(inline json.RawMessage, soc, benchmark string) (*core.Design, string, error) {
	b := s.benchmarks[benchmark]
	if b == nil || len(inline) > 0 || soc != "" {
		return resolveDesign(inline, soc, benchmark)
	}
	b.once.Do(func() { b.design, b.hash, b.err = resolveDesign(nil, "", benchmark) })
	return b.design, b.hash, b.err
}

// resolveSOC parses and bounds an uploaded .soc body and attaches the
// paper's five analog cores, the same convention msoc-plan -soc uses —
// so an uploaded digital SOC is immediately plannable and two uploads
// of the same text hash to the same engine cache session.
func resolveSOC(soc string) (*core.Design, error) {
	if len(soc) > MaxSOCBytes {
		return nil, badRequestf(".soc body of %d bytes exceeds the %d-byte bound", len(soc), MaxSOCBytes)
	}
	parsed, err := itc02.Parse(strings.NewReader(soc))
	if err != nil {
		return nil, badRequestf("bad .soc body: %v", err)
	}
	if len(parsed.Modules) > MaxSOCModules {
		return nil, badRequestf(".soc with %d modules exceeds the %d-module bound", len(parsed.Modules), MaxSOCModules)
	}
	return &core.Design{Name: parsed.Name + "-m", Digital: parsed, Analog: analog.PaperCores()}, nil
}

// benchmarkInfos renders the registry for GET /v1/designs.
func benchmarkInfos() []BenchmarkInfo {
	entries := registry.Entries()
	infos := make([]BenchmarkInfo, len(entries))
	for i, e := range entries {
		infos[i] = BenchmarkInfo{
			Name:        e.Name,
			Description: e.Description,
			Modules:     e.Modules,
			AnalogCores: e.AnalogCores,
			TestVolume:  e.TestVolume,
		}
	}
	return infos
}

// validateDesignWidth rejects widths below the design's minimum
// feasible TAM width (its widest analog test): such a plan can only end
// in a packer error, so it is a client error, not a server one.
func validateDesignWidth(d *core.Design, widths ...int) error {
	min := core.MinTAMWidth(d)
	for _, w := range widths {
		if w < min {
			return badRequestf("width %d below the design's minimum feasible TAM width %d (its widest analog test)", w, min)
		}
	}
	return nil
}

// weightsFor builds and validates the cost weights from a wT value.
func weightsFor(wt float64) (core.Weights, error) {
	w := core.Weights{Time: wt, Area: 1 - wt}
	if err := w.Validate(); err != nil {
		return core.Weights{}, badRequestf("bad weight wt=%v: %v", wt, err)
	}
	return w, nil
}

func validateWidth(w int) error {
	if w < 1 || w > MaxWidth {
		return badRequestf("width %d out of range [1, %d]", w, MaxWidth)
	}
	return nil
}

// validateBackend rejects unknown packing-backend names as client
// errors (400); the empty name is the default backend and always valid.
func validateBackend(name string) error {
	if _, err := core.PackerFor(name); err != nil {
		return badRequestf("unknown packing backend %q (have %v)", name, core.Backends())
	}
	return nil
}

// WriteJSON writes v as indented JSON with a trailing newline — the
// exact bytes the HTTP handlers send, shared with msoc-plan -json so
// CLI output and service responses can be diffed byte for byte.
func WriteJSON(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

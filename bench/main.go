// Command bench is the repository's end-to-end benchmark. It boots the
// planning service in-process exactly as msoc-serve does with default
// flags, listens on a loopback port, and drives it over TCP from at most
// two closed-loop clients through four workloads. Every answer is checked
// against independent oracles; the run prints every end-to-end metric
// per workload and, with -trace 1, replays a sample of the requests
// through the layers' public functions to report per-layer self times
// and counts.
//
// Run it from the repository root:
//
//	bash bench/run.sh [-workload all|plan-hot|plan-cold|sweep-cold|batch-neardup]
//	                  [-seed 1] [-seconds 20] [-trace 1] [-out .bench_build/out]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. bench/README.md describes the
// workloads, the metrics and how to read trace.json.
package main

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"mixsoc/internal/core"
	"mixsoc/internal/service"
)

// benchProcs pins GOMAXPROCS: the service, its clients and the Go
// runtime share two CPUs on every machine the benchmark runs on.
const benchProcs = 2

// setupRepeats is how many times a run boots a fresh server and fills
// its caches; setup_s is the median.
const setupRepeats = 15

// timedRounds is how many equal rounds -seconds is split into (times
// -scale), after one discarded warm-up round of the same length.
const timedRounds = 10

// Paths relative to the repository root, where the benchmark runs.
const (
	// goldenPath holds the paper's golden tables.
	goldenPath = "internal/experiments/testdata/golden_tables.json"
	// digestsPath holds the per-workload digests a -seed 1 run must
	// reproduce.
	digestsPath = "bench/testdata/digests-seed1.json"
)

// metric names a reported metric and its unit.
type metric struct{ name, unit string }

// endToEndMetrics are what a user of the service sees.
var endToEndMetrics = []metric{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_rps", "req/s"},
	{"cpu_ms_per_req", "ms"},
	{"alloc_kb_per_req", "KiB"},
	{"heap_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerMetrics are the single-layer metrics, named after the layer's
// package; see bench/README.md for which end-to-end metric each should
// move.
var perLayerMetrics = []metric{
	{"transport.ms", "ms"},
	{"service.server_ms", "ms"},
	{"service.call_ms", "ms"},
	{"service.decode_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.response_kb", "KiB"},
	{"service.unattributed_ms", "ms"},
	{"codec.resolve_ms", "ms"},
	{"codec.hash_ms", "ms"},
	{"engine.design_hit_ratio", "ratio"},
	{"engine.schedule_hit_ratio", "ratio"},
	{"partition.enumerate_ms", "ms"},
	{"partition.candidates_per_req", "count"},
	{"planner.self_ms", "ms"},
	{"planner.neval_per_req", "count"},
	{"planner.pruned_per_req", "count"},
	{"wrapper.pareto_ms", "ms"},
	{"wrapper.stair_hit_ratio", "ratio"},
	{"jobs.build_ms", "ms"},
	{"jobs.digital_hit_ratio", "ratio"},
	{"tam.pack_ms", "ms"},
	{"tam.packs_per_req", "count"},
	{"tam.ms_per_pack", "ms"},
	{"tam.jobs_per_pack", "count"},
	{"runtime.cpu_utilization", "ratio"},
	{"runtime.gc_per_kreq", "count"},
	{"trace.coverage", "ratio"},
}

func main() {
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// config is a parsed command line.
type config struct {
	seed    int64
	seconds float64
	rounds  int // timedRounds times -scale
	trace   bool
	scale   float64
	golden  *golden
	pinned  pinned // nil when this run neither checks nor updates digests
	update  bool
}

// report is one workload's outcome, as written to results.json.
type report struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	ErrorRate float64            `json:"error_rate"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Tail      tailInfo           `json:"tail"`
	SetupRuns []float64          `json:"setup_s_runs"`
	Rounds    []roundStats       `json:"rounds"`
	Checks    checks             `json:"checks"`
	spans     []span
}

// tailInfo is latency_tail_ms: which percentile it is, of how many of
// the quietest rounds, and how many of their samples lie beyond it.
type tailInfo struct {
	Value    float64 `json:"value_ms"`
	Quantile float64 `json:"quantile"`
	Rounds   int     `json:"rounds"`
	Samples  int     `json:"samples"`
	Beyond   int     `json:"beyond"`
}

// checks records what the oracles verified.
type checks struct {
	// OracleSample counts responses recomputed cold and compared byte
	// for byte; Digest is the sha256 over their response digests, the
	// value -seed 1 pins.
	OracleSample int    `json:"oracle_sample"`
	Digest       string `json:"digest"`
	Pinned       string `json:"pinned"`
	GoldenCells  int    `json:"golden_cells"`
	// TracedReplays and TracedDigests count traced-phase replays and the
	// ones also compared with the HTTP-served bytes.
	TracedReplays int `json:"traced_replays,omitempty"`
	TracedDigests int `json:"traced_digests,omitempty"`
	// ScheduleMissesPerReq is the engine's TAM packings per request in
	// the timed rounds; TracedMissesPerReq is the same count on the
	// traced server for exactly the replayed sample, which
	// tam.packs_per_req should equal.
	ScheduleMissesPerReq float64 `json:"schedule_misses_per_req"`
	TracedMissesPerReq   float64 `json:"traced_schedule_misses_per_req,omitempty"`
}

func run(args []string, stdout io.Writer) (bool, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	which := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed every request body is generated from")
	seconds := fs.Float64("seconds", 20, fmt.Sprintf("timed seconds per workload, split into %d equal rounds (times -scale) after one discarded warm-up round of the same length", timedRounds))
	trace := fs.Int("trace", 1, "1 also runs the traced phase and reports per-layer metrics; 0 reports end-to-end metrics only")
	scale := fs.Float64("scale", 1, "multiplies the set-up repeats, the cold set-up requests, the timed rounds, the oracle and traced samples, and plan-hot's body count (pinned digests are checked only at 1)")
	out := fs.String("out", ".bench_build/out", "directory results.json and trace.json are written to")
	update := fs.Bool("update-digests", false, "rewrite the pinned digests of the workloads run instead of checking them (needs -seed 1 and -scale 1)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() > 0 {
		return false, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		return false, errors.New("need -seconds > 0, -scale > 0 and -trace 0 or 1")
	}
	selected := workloads
	if *which != "all" {
		wl := workloadNamed(*which)
		if wl == nil {
			return false, fmt.Errorf("unknown workload %q (have all, %s)", *which, strings.Join(names, ", "))
		}
		selected = []*workload{wl}
	}
	runtime.GOMAXPROCS(benchProcs)

	cfg := config{seed: *seed, seconds: *seconds, rounds: scaled(timedRounds, *scale, 1), trace: *trace == 1, scale: *scale, update: *update}
	var err error
	if cfg.golden, err = loadGolden(goldenPath); err != nil {
		return false, err
	}
	if *seed == 1 && *scale == 1 {
		cfg.pinned, err = loadPinned(digestsPath)
		if err != nil && !(*update && errors.Is(err, os.ErrNotExist)) {
			return false, err
		}
		if cfg.pinned == nil {
			cfg.pinned = pinned{}
		}
	} else if *update {
		return false, errors.New("-update-digests needs -seed 1 and -scale 1")
	}

	ctx := context.Background()
	var reports []*report
	for _, wl := range selected {
		rep, err := runWorkload(ctx, cfg, wl)
		if err != nil {
			return false, fmt.Errorf("%s: %w", wl.name, err)
		}
		printReport(stdout, rep, cfg)
		reports = append(reports, rep)
		runtime.GC()
	}
	if *update {
		if err := cfg.pinned.save(digestsPath); err != nil {
			return false, err
		}
	}
	if err := writeResults(*out, cfg, reports); err != nil {
		return false, err
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	for _, rep := range reports {
		res.Correct = res.Correct && rep.Failed == 0
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		values := rep.EndToEnd
		if cfg.trace {
			values = rep.PerLayer
		}
		for _, m := range defs {
			key := m.name
			if len(reports) > 1 {
				key = rep.Workload + "/" + m.name
			}
			res.Metrics[key] = metricValue{Value: values[m.name], Unit: m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res.Correct, nil
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload measures one workload on fresh servers: the set-up
// repeats, one discarded warm-up round, the timed rounds, the oracle
// checks and, with tracing on, the traced phase.
func runWorkload(ctx context.Context, cfg config, wl *workload) (*report, error) {
	reqs, err := wl.requests(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	oracleN, fill := scaled(wl.oracleN, cfg.scale, 1), scaled(wl.fill, cfg.scale, 1)
	if reqs.fixed != nil {
		oracleN, fill = len(reqs.fixed), len(reqs.fixed)
	}
	traceK := scaled(wl.traceK, cfg.scale, 1)
	ld := newLoader(wl, reqs, max(oracleN, traceK))
	rep := &report{Workload: wl.name}
	heap0 := liveHeap()

	// Set-up: boot a server and fill its caches, several times; the
	// last server is the one measured.
	setups := scaled(setupRepeats, cfg.scale, 1)
	for r := range setups {
		start := time.Now()
		if ld.srv, err = startServer(); err != nil {
			return nil, err
		}
		err = ld.fill(fill)
		rep.SetupRuns = append(rep.SetupRuns, time.Since(start).Seconds())
		if err == nil && r < setups-1 {
			err = ld.srv.stop()
		}
		if err != nil {
			ld.srv.stop()
			return nil, err
		}
	}
	defer ld.srv.stop()

	roundDur := time.Duration(cfg.seconds / float64(cfg.rounds) * float64(time.Second))
	ld.round(roundDur)
	runtime.GC()
	sum0, count0, err := ld.srv.serverTime(wl.path)
	if err != nil {
		return nil, err
	}
	e0 := ld.srv.svc.Engine().Metrics()
	// The heap is read after every round once the stream has passed
	// heapAfter requests: before that the engine's cross-design caches
	// are still filling, and a slower run would read a smaller heap. What
	// the caches hold still depends on the last few designs, so the median
	// over the readings is far steadier than one. The loader's latency
	// samples are not cache footprint and are subtracted.
	heapAfter := scaled(wl.heapAfter, cfg.scale, 0)
	var heaps []float64
	var sampleBytes int64
	for range cfg.rounds {
		r := ld.round(roundDur)
		rep.Rounds = append(rep.Rounds, r)
		sampleBytes += int64(8 * cap(r.lats))
		heap := float64(liveHeap()-heap0-sampleBytes) / (1 << 20)
		if ld.next.Load() >= int64(heapAfter) {
			heaps = append(heaps, heap)
		}
	}
	sum1, count1, err := ld.srv.serverTime(wl.path)
	if err != nil {
		return nil, err
	}
	e1 := ld.srv.svc.Engine().Metrics()
	if len(heaps) == 0 {
		// A run too slow to fill the caches: fill them untimed.
		ld.serial(int(ld.next.Load()), heapAfter)
		heaps = append(heaps, float64(liveHeap()-heap0-sampleBytes)/(1<<20))
	}

	rep.EndToEnd, rep.Tail = endToEnd(rep.Rounds, wl.tailQ, rep.SetupRuns)
	rep.PerLayer = servedLayers(rep.Rounds, e0, e1, sum1-sum0, count1-count0)
	rep.Checks.ScheduleMissesPerReq = ratio(float64(e1.ScheduleTotal.Misses-e0.ScheduleTotal.Misses), float64(succeeded(rep.Rounds)))
	rep.EndToEnd["heap_mb"] = median(heaps)

	rep.Checks.OracleSample = oracleN
	rep.Checks.Digest, rep.Checks.GoldenCells = ld.verify(cfg.golden, oracleN)
	if reqs.fixed != nil && len(reqs.fixed) == len(hotBenchmarks)*len(hotWidths)*len(hotWTs) && rep.Checks.GoldenCells != len(hotWidths)*len(hotWTs) {
		ld.fail("checked %d golden p93791m cells, want %d", rep.Checks.GoldenCells, len(hotWidths)*len(hotWTs))
	}
	rep.Checks.Pinned = "not checked (-seed ≠ 1 or -scale ≠ 1)"
	if cfg.pinned != nil {
		switch want := cfg.pinned[wl.name]; {
		case cfg.update:
			cfg.pinned[wl.name] = rep.Checks.Digest
			rep.Checks.Pinned = "updated"
		case want == rep.Checks.Digest:
			rep.Checks.Pinned = "ok"
		default:
			rep.Checks.Pinned = "DRIFTED"
			ld.fail("answers drifted from the pinned -seed 1 digest %q", want)
		}
	}

	if cfg.trace {
		ld.attempted.Add(int64(traceK))
		tr, err := tracePhase(ctx, wl, reqs, traceK, ld.served, ld.fail)
		if err != nil {
			return nil, err
		}
		for k, v := range tr.perLayer {
			rep.PerLayer[k] = v
		}
		rep.spans = tr.spans
		rep.Checks.TracedReplays = tr.replayed
		rep.Checks.TracedDigests = tr.digestsChecked
		rep.Checks.TracedMissesPerReq = tr.serverMisses
	}

	rep.Attempted, rep.Failed = ld.attempted.Load(), ld.failed.Load()
	rep.ErrorRate = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.Errors = ld.errs
	return rep, nil
}

// verify re-sends requests 0..n-1 and holds each answer to the earlier
// answers to the same body, to a cold one-shot recompute, and — for
// p93791m plans — to the golden tables. It returns the sha256 over the
// answers' digests and the number of golden cells checked.
func (ld *loader) verify(g *golden, n int) (digest string, goldenCells int) {
	h := sha256.New()
	var buf, want bytes.Buffer
	for i := range n {
		if _, ok := ld.do(i, &buf); !ok {
			continue
		}
		served := buf.Bytes()
		fmt.Fprintf(h, "%x\n", sha256.Sum256(served))
		body, _ := ld.reqs.body(i) // ld.do just generated it
		req, err := ld.wl.kind.decode(body)
		if err != nil {
			ld.fail("request %d: %v", i, err)
			continue
		}
		resp, err := ld.wl.kind.oracle(req)
		if err == nil {
			want.Reset()
			err = service.WriteJSON(&want, resp)
		}
		if err != nil {
			ld.fail("request %d: oracle: %v", i, err)
			continue
		}
		if !bytes.Equal(served, want.Bytes()) {
			ld.fail("request %d: served answer differs from a cold one-shot recompute", i)
		}
		if pr, ok := req.(*service.PlanRequest); ok {
			cell, err := g.check(pr, served)
			if cell {
				goldenCells++
			}
			if err != nil {
				ld.fail("request %d: %v", i, err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), goldenCells
}

// succeeded counts the rounds' successful requests.
func succeeded(rounds []roundStats) (n int) {
	for _, r := range rounds {
		n += r.Requests
	}
	return n
}

// liveHeap is the heap in use after a full garbage collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// endToEnd computes the end-to-end metrics of the timed rounds except
// heap_mb. The median latency, throughput and CPU per request are those
// of the best round: other work on a shared machine only ever slows a
// round down, so the best round is the closest estimate of the
// service's own speed, and it varies far less from run to run than a
// median over rounds (see results/seed/). The tail comes from the
// quietest rounds for the same reason (see quietTail).
func endToEnd(rounds []roundStats, tailQ float64, setup []float64) (map[string]float64, tailInfo) {
	var alloc uint64
	p50, rps, cpu := math.Inf(1), 0.0, math.Inf(1)
	for _, r := range rounds {
		p50 = min(p50, r.P50)
		rps = max(rps, ratio(float64(r.Requests), r.Wall.Seconds()))
		cpu = min(cpu, ratio(float64(r.CPU)/1e6, float64(r.Requests)))
		alloc += r.Alloc
	}
	ti := quietTail(rounds, tailQ)
	return map[string]float64{
		"latency_p50_ms":   p50,
		"latency_tail_ms":  ti.Value,
		"throughput_rps":   rps,
		"cpu_ms_per_req":   cpu,
		"alloc_kb_per_req": ratio(float64(alloc), float64(succeeded(rounds))) / 1024,
		"setup_s":          median(setup),
	}, ti
}

// quietTail returns the q-quantile latency of the quietest rounds, those
// with the lowest medians: it pools as few of them as leave
// minTailSamples beyond the quantile, or all of them when even that
// leaves fewer. A pause of a shared host lands in the tail first, so
// pooling every round would let one bad stretch set it.
func quietTail(rounds []roundStats, q float64) tailInfo {
	order := slices.Clone(rounds)
	slices.SortStableFunc(order, func(a, b roundStats) int { return cmp.Compare(a.P50, b.P50) })
	var pooled []float64
	ti := tailInfo{Quantile: q}
	for _, r := range order {
		pooled = append(pooled, r.lats...)
		ti.Rounds++
		if beyond(len(pooled), q) >= minTailSamples {
			break
		}
	}
	sort.Float64s(pooled)
	ti.Value, ti.Beyond = tail(pooled, q)
	ti.Samples = len(pooled)
	return ti
}

// servedLayers computes the per-layer metrics read during the timed
// rounds from public accessors: the engine's counters, the service's
// request-duration summary, and the Go runtime.
func servedLayers(rounds []roundStats, e0, e1 core.EngineMetrics, serverSec, serverCount float64) map[string]float64 {
	var lats []float64
	var cpu, wall time.Duration
	var gcs uint32
	for _, r := range rounds {
		lats = append(lats, r.lats...)
		cpu += r.CPU
		wall += r.Wall
		gcs += r.GCs
	}
	hitRatio := func(h0, m0, h1, m1 uint64) float64 {
		hits, misses := float64(h1-h0), float64(m1-m0)
		return ratio(hits, hits+misses)
	}
	serverMS := ratio(serverSec*1000, serverCount)
	return map[string]float64{
		"transport.ms":              mean(lats) - serverMS,
		"service.server_ms":         serverMS,
		"engine.design_hit_ratio":   hitRatio(e0.DesignHits, e0.DesignMisses, e1.DesignHits, e1.DesignMisses),
		"engine.schedule_hit_ratio": hitRatio(e0.ScheduleTotal.Hits, e0.ScheduleTotal.Misses, e1.ScheduleTotal.Hits, e1.ScheduleTotal.Misses),
		"wrapper.stair_hit_ratio":   hitRatio(e0.ModuleStairs.Hits, e0.ModuleStairs.Misses, e1.ModuleStairs.Hits, e1.ModuleStairs.Misses),
		"jobs.digital_hit_ratio":    hitRatio(e0.DigitalJobs.Hits, e0.DigitalJobs.Misses, e1.DigitalJobs.Hits, e1.DigitalJobs.Misses),
		"runtime.cpu_utilization":   ratio(cpu.Seconds(), wall.Seconds()*benchProcs),
		"runtime.gc_per_kreq":       ratio(float64(gcs)*1000, float64(len(lats))),
	}
}

// printReport prints one workload's metrics by name with their units.
func printReport(w io.Writer, rep *report, cfg config) {
	wl := workloadNamed(rep.Workload)
	fmt.Fprintf(w, "== %s: POST %s, %d closed-loop client(s), seed %d, %d×%.3gs timed rounds\n",
		rep.Workload, wl.path, wl.clients, cfg.seed, cfg.rounds, cfg.seconds/float64(cfg.rounds))
	fmt.Fprintf(w, "requests: %d attempted, %d failed (error_rate %g)\n", rep.Attempted, rep.Failed, rep.ErrorRate)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  FAIL %s\n", e)
	}
	fmt.Fprintln(w, "end-to-end:")
	for _, m := range endToEndMetrics {
		note := ""
		if m.name == "latency_tail_ms" {
			note = fmt.Sprintf("  (p%g of the %d quietest rounds; %d of %d samples beyond)", 100*rep.Tail.Quantile, rep.Tail.Rounds, rep.Tail.Beyond, rep.Tail.Samples)
			if rep.Tail.Beyond < minTailSamples {
				note += fmt.Sprintf(" — fewer than %d: lengthen -seconds", minTailSamples)
			}
		}
		fmt.Fprintf(w, "  %-30s %14.6g %s%s\n", m.name, rep.EndToEnd[m.name], m.unit, note)
	}
	fmt.Fprintln(w, "per-layer:")
	for _, m := range perLayerMetrics {
		if v, ok := rep.PerLayer[m.name]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	c := rep.Checks
	fmt.Fprintf(w, "checks: %d answers recomputed cold (digest %.12s…, pinned: %s), %d golden cells, engine schedule misses/req %.4g",
		c.OracleSample, c.Digest, c.Pinned, c.GoldenCells, c.ScheduleMissesPerReq)
	if cfg.trace {
		fmt.Fprintf(w, ", %d traced replays (%d vs served digests; traced server schedule misses/req %.4g)", c.TracedReplays, c.TracedDigests, c.TracedMissesPerReq)
	}
	fmt.Fprintln(w)
}

// writeResults writes results.json (every report) and, when tracing,
// trace.json (every span, by workload) under dir.
func writeResults(dir string, cfg config, reports []*report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Seed       int64     `json:"seed"`
		Seconds    float64   `json:"seconds"`
		Rounds     int       `json:"rounds"`
		Scale      float64   `json:"scale"`
		GOMAXPROCS int       `json:"gomaxprocs"`
		Reports    []*report `json:"workloads"`
	}{cfg.seed, cfg.seconds, cfg.rounds, cfg.scale, runtime.GOMAXPROCS(0), reports}
	if err := writeJSON(filepath.Join(dir, "results.json"), doc); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	spans := map[string][]span{}
	for _, rep := range reports {
		spans[rep.Workload] = rep.spans
	}
	return writeJSON(filepath.Join(dir, "trace.json"), spans)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

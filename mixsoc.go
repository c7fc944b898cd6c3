// Package mixsoc is a test-planning library for mixed-signal
// systems-on-chip with wrapped analog cores, reproducing Sehgal, Liu,
// Ozev and Chakrabarty, "Test Planning for Mixed-Signal SOCs with
// Wrapped Analog Cores" (DATE 2005).
//
// The library answers the paper's question: given a digital SOC with
// embedded analog cores, a SOC-level TAM width W, and a cost trade-off
// between test time and silicon area, which analog cores should share
// reconfigurable analog test wrappers, and how should every test be
// scheduled on the TAM?
//
// The main entry points are:
//
//   - P93791M, the paper's benchmark SOC (ITC'02 p93791 plus five analog
//     cores from a commercial baseband chip);
//   - Plan / PlanExhaustive, the Cost_Optimizer heuristic of the paper
//     (Figure 3) and the exhaustive baseline;
//   - ScheduleFor, a rectangle-packed TAM schedule for any specific
//     wrapper-sharing configuration;
//   - WrapperAccuracy, the behavioural wrapper-in-the-loop measurement
//     experiment of Section 5 (Figure 5).
//
// Long-lived callers — and the HTTP serving layer (internal/service,
// cmd/msoc-serve) — use an Engine: a handle that caches wrapper
// staircases and TAM schedules per design (keyed by content hash,
// evicted LRU) and threads context cancellation through the planning
// hot loops. The package-level planning functions are thin wrappers
// over a shared DefaultEngine, so repeated calls on the same design
// reuse each other's work while returning bit-identical results.
//
// Deeper control — wrapper design for digital cores, analog wrapper area
// models, partition policies, the packer itself — lives in the internal
// packages and is re-exported here through type aliases where users need
// to hold the values.
package mixsoc

import (
	"context"
	"io"

	"mixsoc/internal/analog"
	"mixsoc/internal/asim"
	"mixsoc/internal/core"
	"mixsoc/internal/itc02"
	"mixsoc/internal/partition"
	"mixsoc/internal/registry"
	"mixsoc/internal/socgen"
	"mixsoc/internal/tam"
	"mixsoc/internal/wrapsim"
)

// Core planning types, aliased so callers work with the same values the
// internal packages produce.
type (
	// Design is a mixed-signal SOC: a digital ITC'02-style SOC plus
	// embedded analog cores.
	Design = core.Design
	// Weights are the cost weighting factors wT and wA of Problem P_msoc.
	Weights = core.Weights
	// Planner solves Problem P_msoc at one TAM width.
	Planner = core.Planner
	// Result is a planning outcome: best configuration, cost breakdown,
	// and evaluation counts.
	Result = core.Result
	// Evaluation is the costing of one sharing configuration.
	Evaluation = core.Evaluation

	// SOC is a digital SOC in the ITC'02 benchmark model.
	SOC = itc02.SOC
	// Module is a digital core of a SOC.
	Module = itc02.Module
	// ModuleTest is one test of a digital module.
	ModuleTest = itc02.Test

	// AnalogCore is an embedded analog core with its specification tests.
	AnalogCore = analog.Core
	// AnalogTest is one specification-based analog test (a Table 2 row).
	AnalogTest = analog.Test
	// Hertz is a frequency in hertz; use KHz and MHz multipliers.
	Hertz = analog.Hertz

	// Partition is a wrapper-sharing configuration of the analog cores.
	Partition = partition.Partition
	// Schedule is a packed TAM test schedule.
	Schedule = tam.Schedule
	// Packer is a pluggable TAM packing backend; see PackingBackends
	// and PackerFor, and set Planner.Packer or SweepOptions.Backend to
	// use one.
	Packer = tam.Packer

	// Engine is a long-lived planning handle with per-design caches,
	// LRU eviction, and context cancellation; see NewEngine.
	Engine = core.Engine
	// EngineOptions configures NewEngine.
	EngineOptions = core.EngineOptions
	// EngineMetrics aggregates an Engine's cache counters.
	EngineMetrics = core.EngineMetrics
	// DesignInfo describes one live cache session of an Engine.
	DesignInfo = core.DesignInfo

	// WrapperConfig sizes a behavioural analog test wrapper.
	WrapperConfig = wrapsim.Config
	// WrapperExperiment is a configurable wrapper-in-the-loop cut-off
	// frequency measurement (the Section 5 experiment).
	WrapperExperiment = wrapsim.CutoffExperiment
	// WrapperAccuracyResult is the Figure 5 experiment outcome.
	WrapperAccuracyResult = wrapsim.CutoffResult
	// Tone is one sinusoidal stimulus component for wrapper experiments.
	Tone = asim.Tone
)

// Candidate-partition policies for Planner.Policy.
var (
	// PolicyPaper is the paper's 26-combination candidate set.
	PolicyPaper = partition.PaperPolicy
	// PolicyFull admits every sharing configuration with at least one
	// shared wrapper.
	PolicyFull = partition.FullPolicy
)

// Frequency units for AnalogTest fields.
const (
	KHz = analog.KHz
	MHz = analog.MHz
)

// EqualWeights is the balanced cost setting wT = wA = 0.5.
var EqualWeights = core.EqualWeights

// PackingBackends lists the selectable packing-backend names: the tam
// backends ("occupancy", "rectangle") plus the "tournament" composite
// that runs every backend and keeps the best validated makespan.
func PackingBackends() []string { return core.Backends() }

// PackerFor resolves a packing-backend name to a Packer. The empty
// name resolves to the default occupancy backend, the one NewPlanner
// already sets.
func PackerFor(name string) (Packer, error) { return core.PackerFor(name) }

// NewEngine returns a long-lived planning engine: it keeps a wrapper
// staircase cache and per-width TAM schedule caches for every design
// it has seen (keyed by DesignHash, evicted LRU) and threads context
// cancellation through the planning hot loops, so a caller can abort a
// sweep mid-flight with the caches left consistent. Every result is
// bit-identical to the corresponding package-level function.
func NewEngine(opts EngineOptions) *Engine { return core.NewEngine(opts) }

// defaultEngine backs the package-level planning functions, so
// repeated one-shot calls on the same design share caches the way a
// long-lived server does.
var defaultEngine = core.NewEngine(core.EngineOptions{})

// DefaultEngine returns the process-wide engine behind Plan,
// PlanExhaustive, ScheduleFor, Sweep and SweepWith — the handle to use
// for context-aware calls (Engine.Plan, Engine.Sweep, ...) that should
// share those functions' caches.
func DefaultEngine() *Engine { return defaultEngine }

// MarshalDesign renders a design in its canonical JSON form — the wire
// format msoc-serve accepts for inline designs. The codec round-trips
// losslessly.
func MarshalDesign(d *Design) ([]byte, error) { return core.MarshalDesign(d) }

// UnmarshalDesign parses and validates a design from its canonical
// JSON form.
func UnmarshalDesign(data []byte) (*Design, error) { return core.UnmarshalDesign(data) }

// DesignHash returns the design's content hash (hex SHA-256 over its
// digital modules and analog cores, ignoring the display name) — the
// key an Engine caches the design under.
func DesignHash(d *Design) (string, error) { return core.DesignHash(d) }

// P93791M returns the paper's experimental SOC: the embedded p93791
// digital benchmark augmented with the five analog cores of Table 2.
func P93791M() *Design {
	return &Design{
		Name:    "p93791m",
		Digital: itc02.P93791(),
		Analog:  analog.PaperCores(),
	}
}

// P93791 returns the digital-only embedded benchmark.
func P93791() *SOC { return itc02.P93791() }

// D281 returns the small embedded digital benchmark, convenient for
// fast experiments.
func D281() *SOC { return itc02.D281() }

// D695 returns the embedded d695-class digital benchmark, the ITC'02
// family's small circuit (ten ISCAS-derived cores).
func D695() *SOC { return itc02.D695() }

// G1023 returns the embedded g1023-class digital benchmark: fourteen
// modest cores with no dominating giant.
func G1023() *SOC { return itc02.G1023() }

// T512505 returns the embedded t512505-class digital benchmark, the
// family's stress case: thirty-one cores dominated by one giant scan
// core whose test floors the schedule at every practical TAM width.
func T512505() *SOC { return itc02.T512505() }

// Benchmark describes one entry of the built-in benchmark registry.
type Benchmark = registry.Entry

// Benchmarks lists every built-in benchmark — each embedded digital SOC
// and its plannable mixed-signal "m" variant — sorted by name.
func Benchmarks() []Benchmark { return registry.Entries() }

// LookupBenchmark returns a fresh copy of a named built-in benchmark
// design ("p93791m", "d695", "t512505m", ...). Digital-only names
// resolve to designs without analog cores, which cannot be planned; the
// "m" variants can.
func LookupBenchmark(name string) (*Design, error) { return registry.Lookup(name) }

// GenOptions configures Generate, the seeded synthetic-design
// generator; see internal/socgen for the determinism contract.
type GenOptions = socgen.Options

// GenClass is a synthetic design size class for GenOptions.Class.
type GenClass = socgen.Class

// The synthetic design size classes, smallest first.
const (
	GenSmall  = socgen.Small
	GenMedium = socgen.Medium
	GenLarge  = socgen.Large
)

// ParseGenClass parses a size-class name ("small", "medium", "large").
func ParseGenClass(s string) (GenClass, error) { return socgen.ParseClass(s) }

// Generate returns the seeded synthetic mixed-signal design for opt.
// Equal options generate byte-identical designs (same .soc text, same
// canonical JSON), and every generated design passes validation and
// round-trips through the .soc format — the supply behind msoc-gen and
// the property-based test layer.
func Generate(opt GenOptions) (*Design, error) { return socgen.Generate(opt) }

// GenerateSOC returns only the digital half of Generate's design.
func GenerateSOC(opt GenOptions) (*SOC, error) { return socgen.GenerateSOC(opt) }

// PaperAnalogCores returns fresh copies of the five Table 2 cores.
func PaperAnalogCores() []*AnalogCore { return analog.PaperCores() }

// LoadSOC parses a digital SOC description in the ITC'02-style text
// format documented in internal/itc02.
func LoadSOC(r io.Reader) (*SOC, error) { return itc02.Parse(r) }

// FormatSOC renders a SOC back to the text format.
func FormatSOC(s *SOC) string { return itc02.Format(s) }

// LoadAnalogCores parses analog core specifications in the text format
// documented in internal/analog (AnalogCore/Test blocks with Band,
// Fsample, Cycles, TamWidth, Resolution fields).
func LoadAnalogCores(r io.Reader) ([]*AnalogCore, error) { return analog.ParseCores(r) }

// FormatAnalogCores renders analog cores back to the text format.
func FormatAnalogCores(cores []*AnalogCore) string { return analog.FormatCores(cores) }

// SweepOptions configures SweepWith: exhaustive vs heuristic solving,
// cross-width warm-starting, grid-cell selection, and the worker
// budget.
type SweepOptions = core.SweepOptions

// Sweep solves the planning problem across several TAM widths and
// weight settings and returns every solved point; see BestSweepPoint.
func Sweep(d *Design, widths []int, weights []Weights, exhaustive bool) ([]core.SweepPoint, error) {
	return SweepWith(d, widths, weights, SweepOptions{Exhaustive: exhaustive})
}

// SweepWith is Sweep with explicit options. SweepOptions.WarmStart
// chains the TAM packings across adjacent widths (each width's
// schedules seed the next width's improve loop), which is markedly
// faster for wide exploratory sweeps at the price of makespans that
// can deviate a few percent from a cold sweep. SweepOptions.Select
// restricts the sweep to chosen grid cells, which is how a sharded
// runner splits one grid across machines; in a cold sweep every
// selected cell is solved bit-identically to the corresponding cell of
// a full sweep (combined with WarmStart, the warm chain skips the
// unselected widths, so seeds — and hence makespans — can differ from
// a full warm sweep's).
//
// The sweep runs on DefaultEngine, so cold grid points planned here (or
// by Plan) are packed once per process; warm-started sweeps never touch
// the shared cold caches. For cancellation, use Engine.Sweep with a
// context.
func SweepWith(d *Design, widths []int, weights []Weights, opt SweepOptions) ([]core.SweepPoint, error) {
	return defaultEngine.Sweep(context.Background(), d, widths, weights, opt)
}

// BestSweepPoint picks the cheapest point of a sweep, preferring
// narrower TAMs on ties.
func BestSweepPoint(points []core.SweepPoint) (core.SweepPoint, error) {
	return core.BestOver(points)
}

// Plan runs the paper's Cost_Optimizer heuristic (Figure 3) on the
// design at TAM width w with the given cost weights and the paper's
// default cost model and candidate policy. It is a thin wrapper over
// DefaultEngine, so repeated plans of the same design reuse its cached
// wrapper staircases and TAM schedules; the Result — including NEval —
// is bit-identical to a cache-less run.
func Plan(d *Design, w int, weights Weights) (*Result, error) {
	return defaultEngine.Plan(context.Background(), d, w, weights)
}

// PlanExhaustive evaluates every candidate sharing configuration, the
// paper's optimal-but-expensive baseline; like Plan it runs on
// DefaultEngine.
func PlanExhaustive(d *Design, w int, weights Weights) (*Result, error) {
	return defaultEngine.PlanExhaustive(context.Background(), d, w, weights)
}

// NewPlanner exposes the full planner for callers that need to change
// the cost model, candidate policy, or pruning behaviour.
func NewPlanner(d *Design, w int, weights Weights) *Planner {
	return core.NewPlanner(d, w, weights)
}

// ScheduleFor packs a TAM schedule for one specific sharing
// configuration p at width w (use d.AllShare(), or any enumeration
// result). It runs on DefaultEngine; the returned schedule
// may be cached and shared, so treat it as read-only.
func ScheduleFor(d *Design, p Partition, w int) (*Schedule, error) {
	return defaultEngine.Schedule(context.Background(), d, p, w, "")
}

// WrapperAccuracy runs the Section 5 wrapper-in-the-loop experiment
// with the paper's parameters and returns the spectra and extracted
// cut-off frequencies of Figure 5.
func WrapperAccuracy() (*WrapperAccuracyResult, error) {
	return wrapsim.PaperCutoffExperiment().Run()
}

// PaperWrapperExperiment returns the Section 5 experiment configuration
// for callers that want to vary it (sample counts, converter
// nonidealities, core cut-off) before calling Run.
func PaperWrapperExperiment() WrapperExperiment {
	return wrapsim.PaperCutoffExperiment()
}

// PaperWrapperConfig returns the 8-bit, 50 MHz, 4 V wrapper
// configuration of the paper's test chip.
func PaperWrapperConfig() WrapperConfig { return wrapsim.PaperConfig() }

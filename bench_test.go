package mixsoc

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md §3
// (the packer's own ablations, fixed bus and Pareto pruning, live in
// internal/tam).
// Each benchmark regenerates the corresponding experiment through
// internal/experiments (the same code path as cmd/msoc-tables) and
// reports the experiment's headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Renderings are printed by
// cmd/msoc-tables; here we keep the numbers machine-readable.

import (
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/experiments"
	"mixsoc/internal/tam"
)

// BenchmarkTable1 regenerates Table 1: C_A and LTB for all 26 sharing
// combinations.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	var rows []experiments.Table1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table1(analog.PaperCostModel())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "combos")
	for _, r := range rows {
		if r.Label == "{A,C}" {
			b.ReportMetric(r.LTB, "LTB{A,C}") // paper: 68.5
		}
	}
}

// BenchmarkTable3 regenerates Table 3: normalized SOC test time for all
// combinations at W = 32, 48, 64.
func BenchmarkTable3(b *testing.B) {
	var res *experiments.Table3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Table3(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Paper spreads: 2.45, 7.36, 17.18.
	b.ReportMetric(res.Spread[0], "spreadW32")
	b.ReportMetric(res.Spread[1], "spreadW48")
	b.ReportMetric(res.Spread[2], "spreadW64")
}

// BenchmarkTable4 regenerates Table 4: Cost_Optimizer vs exhaustive over
// W ∈ {32..64} and the three weight settings.
func BenchmarkTable4(b *testing.B) {
	var res *experiments.Table4Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Table4(nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Paper: reductions 61.5%/73.0%, heuristic optimal in all but one of
	// 15 cells.
	b.ReportMetric(res.MeanReduction(), "meanReduction%")
	b.ReportMetric(100*res.OptimalFraction(), "optimal%")
}

// BenchmarkFigure5 regenerates the wrapper-accuracy experiment.
func BenchmarkFigure5(b *testing.B) {
	var res *WrapperAccuracyResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Paper: direct 61 kHz, wrapped 58 kHz, error ~5%.
	b.ReportMetric(res.DirectFc/1e3, "directFcKHz")
	b.ReportMetric(res.WrappedFc/1e3, "wrappedFcKHz")
	b.ReportMetric(res.ErrorPercent, "fcError%")
}

// BenchmarkSection5 regenerates the implementation-cost facts.
func BenchmarkSection5(b *testing.B) {
	var f experiments.Section5Facts
	var err error
	for i := 0; i < b.N; i++ {
		f, err = experiments.Section5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.FlashComparators8), "flashComparators")     // 256
	b.ReportMetric(float64(f.ModularComparators8), "modularComparators") // 32
}

// BenchmarkAblationSerialConstraint measures what the shared-wrapper
// serialization constraint costs: the all-share schedule with the
// constraint honoured versus the (physically unrealizable) schedule with
// the groups stripped.
func BenchmarkAblationSerialConstraint(b *testing.B) {
	d := P93791M()
	var with, without int64
	for i := 0; i < b.N; i++ {
		jobs, err := core.BuildJobs(d, d.AllShare(), 64)
		if err != nil {
			b.Fatal(err)
		}
		s, err := tam.OccupancyPacker{}.Pack(jobs, 64)
		if err != nil {
			b.Fatal(err)
		}
		with = s.Makespan

		free, err := core.BuildJobs(d, d.AllShare(), 64)
		if err != nil {
			b.Fatal(err)
		}
		for _, j := range free {
			j.Group = ""
		}
		s, err = tam.OccupancyPacker{}.Pack(free, 64)
		if err != nil {
			b.Fatal(err)
		}
		without = s.Makespan
	}
	b.ReportMetric(float64(with), "cyclesSerialized")
	b.ReportMetric(float64(without), "cyclesFree")
	b.ReportMetric(100*float64(with-without)/float64(without), "serialPenalty%")
}

// BenchmarkAblationEpsilon sweeps the group-elimination threshold ε of
// Cost_Optimizer: larger ε keeps more groups, evaluating more
// configurations for (possibly) better cost.
func BenchmarkAblationEpsilon(b *testing.B) {
	d := P93791M()
	for _, eps := range []float64{0, 2, 10, 100} {
		b.Run(benchName("eps", eps), func(b *testing.B) {
			var res *Result
			var err error
			for i := 0; i < b.N; i++ {
				pl := core.NewPlanner(d, 48, EqualWeights)
				pl.Epsilon = eps
				res, err = pl.CostOptimizer()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.NEval), "NEval")
			b.ReportMetric(res.Best.Cost, "cost")
		})
	}
}

// BenchmarkAblationAreaModel compares the shared-wrapper pricing rules:
// merged-requirements (default, physically faithful) versus the literal
// max-member-area of equation (1).
func BenchmarkAblationAreaModel(b *testing.B) {
	d := P93791M()
	for _, rule := range []analog.SharedAreaRule{analog.MergedRequirements, analog.MaxMemberArea} {
		b.Run(rule.String(), func(b *testing.B) {
			var res *Result
			var err error
			for i := 0; i < b.N; i++ {
				pl := core.NewPlanner(d, 48, EqualWeights)
				cm := analog.DefaultCostModel()
				cm.Rule = rule
				pl.CostModel = cm
				res, err = pl.CostOptimizer()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Best.Cost, "cost")
			b.ReportMetric(res.Best.CA, "CA")
		})
	}
}

// BenchmarkSweepGrid measures the trade-off grid engine end to end:
// grid points fan across the worker pool and points at one width share
// a schedule cache, so this is the benchmark that tracks the planning
// engine's throughput (as opposed to single-solve latency).
func BenchmarkSweepGrid(b *testing.B) {
	d := P93791M()
	widths := []int{32, 48, 64}
	weights := []Weights{EqualWeights, {Time: 0.25, Area: 0.75}, {Time: 0.75, Area: 0.25}}
	var points []core.SweepPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = Sweep(d, widths, weights, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	best, err := BestSweepPoint(points)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(points)), "points")
	b.ReportMetric(best.Result.Best.Cost, "bestCost")
	b.ReportMetric(float64(best.Width), "bestW")
}

// BenchmarkPlanHeuristicVsExhaustive is the end-to-end solver
// comparison at one representative point (W=48, equal weights).
func BenchmarkPlanHeuristicVsExhaustive(b *testing.B) {
	d := P93791M()
	b.Run("cost-optimizer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Plan(d, 48, EqualWeights); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PlanExhaustive(d, 48, EqualWeights); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchName(prefix string, v float64) string {
	switch {
	case v == float64(int64(v)):
		return prefix + "=" + itoa(int64(v))
	default:
		return prefix + "~" + itoa(int64(v*100)) + "e-2"
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

package experiments

import (
	"context"
	"fmt"
	"strings"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
)

// Table4Cell compares exhaustive evaluation with Cost_Optimizer at one
// (width, weights) point.
type Table4Cell struct {
	Width   int
	Weights core.Weights

	ExhaustiveCost  float64
	ExhaustiveNEval int
	ExhaustiveSel   string

	HeuristicCost  float64
	HeuristicNEval int
	HeuristicSel   string

	ReductionPercent float64 // evaluations saved by the heuristic
	Optimal          bool    // heuristic cost equals the exhaustive optimum
}

// Table4Result groups cells by weight setting, as the paper prints them.
type Table4Result struct {
	Widths  []int
	Weights []core.Weights
	Cells   []Table4Cell // len = len(Widths) * len(Weights), weights-major
}

// Table4 runs both solvers across the width sweep for each weight
// setting, as two sweeps over one engine session: the exhaustive pass
// packs every configuration at each width, and the heuristic pass is
// served those schedules from the session's per-width caches, since
// test schedules depend only on the width and the sharing
// configuration. The grid cells fan out across the worker pool and are
// merged weights-major, so the table (costs, NEval, selections) is
// identical to a sequential run.
func Table4(d *core.Design, widths []int, weights []core.Weights) (*Table4Result, error) {
	if d == nil {
		d = Design()
	}
	if len(widths) == 0 {
		widths = PaperWidths
	}
	if len(weights) == 0 {
		weights = PaperWeightSettings
	}
	ctx := context.Background()
	// Both solvers sweep one throwaway engine session: the heuristic
	// pass is served every schedule the exhaustive pass packed.
	e := core.NewEngine(core.EngineOptions{MaxWidthCaches: len(widths)})
	opt := core.SweepOptions{
		Exhaustive: true,
		Configure:  func(pl *core.Planner) { pl.CostModel = analog.PaperCostModel() },
	}
	exh, err := e.Sweep(ctx, d, widths, weights, opt)
	if err != nil {
		return nil, err
	}
	opt.Exhaustive = false
	heur, err := e.Sweep(ctx, d, widths, weights, opt)
	if err != nil {
		return nil, err
	}
	names := d.AnalogNames()
	cells := make([]Table4Cell, len(exh))
	for i, x := range exh {
		ex, h := x.Result, heur[i].Result
		cells[i] = Table4Cell{
			Width:            x.Width,
			Weights:          x.Weights,
			ExhaustiveCost:   ex.Best.Cost,
			ExhaustiveNEval:  ex.NEval,
			ExhaustiveSel:    ex.Best.Label(names),
			HeuristicCost:    h.Best.Cost,
			HeuristicNEval:   h.NEval,
			HeuristicSel:     h.Best.Label(names),
			ReductionPercent: h.ReductionPercent(),
			Optimal:          h.Best.Cost <= ex.Best.Cost+1e-9,
		}
	}
	return &Table4Result{Widths: widths, Weights: weights, Cells: cells}, nil
}

// RenderTable4 formats the result like the paper's Table 4.
func RenderTable4(r *Table4Result) string {
	var sb strings.Builder
	sb.WriteString("Table 4: Cost_Optimizer versus exhaustive evaluation\n\n")
	i := 0
	for _, wt := range r.Weights {
		fmt.Fprintf(&sb, "weights wT=%.2f wA=%.2f\n", wt.Time, wt.Area)
		fmt.Fprintf(&sb, "%4s  %8s %5s %-16s  %8s %5s %-16s  %6s %s\n",
			"W", "C(exh)", "NEval", "selected", "C(heur)", "NEval", "selected", "dE(%)", "opt")
		for range r.Widths {
			c := r.Cells[i]
			opt := "yes"
			if !c.Optimal {
				opt = "NO"
			}
			fmt.Fprintf(&sb, "%4d  %8.1f %5d %-16s  %8.1f %5d %-16s  %6.1f %s\n",
				c.Width, c.ExhaustiveCost, c.ExhaustiveNEval, c.ExhaustiveSel,
				c.HeuristicCost, c.HeuristicNEval, c.HeuristicSel,
				c.ReductionPercent, opt)
			i++
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("(paper: NEval always 26 exhaustive; heuristic mostly 10, one 7;\n")
	sb.WriteString(" reductions 61.5% and 73.0%; heuristic optimal in all but one case)\n")
	return sb.String()
}

// OptimalFraction returns the share of cells where the heuristic matched
// the exhaustive optimum.
func (r *Table4Result) OptimalFraction() float64 {
	if len(r.Cells) == 0 {
		return 0
	}
	n := 0
	for _, c := range r.Cells {
		if c.Optimal {
			n++
		}
	}
	return float64(n) / float64(len(r.Cells))
}

// MeanReduction returns the average evaluation reduction across cells.
func (r *Table4Result) MeanReduction() float64 {
	if len(r.Cells) == 0 {
		return 0
	}
	var s float64
	for _, c := range r.Cells {
		s += c.ReductionPercent
	}
	return s / float64(len(r.Cells))
}

package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/partition"
)

// Table3Row is one sharing combination evaluated at every width.
type Table3Row struct {
	Wrappers int
	Label    string
	CT       []float64 // normalized test time per width, aligned with widths
}

// Table3Result is the full table plus the spread statistics the paper
// quotes ("the difference between the lowest and the highest test
// times ... are 2.45, 7.36, and 17.18").
type Table3Result struct {
	Widths []int
	Rows   []Table3Row
	Spread []float64 // max-min CT per width
	Lowest []string  // label of the lowest-CT combination per width
}

// Table3 runs the TAM optimizer for every candidate combination at every
// width and normalizes test times to the all-share case per width. Every
// (width, combination) pair, plus each width's all-share point, is one
// task of a single pool; a sequential pass then normalizes the packed
// times, making the table identical to a sequential run. A throwaway
// engine packs them all, so each width packs a configuration once and
// every width draws on one wrapper staircase cache: each digital
// module's staircase is designed once at the widest column and served
// to the narrower ones as a prefix.
func Table3(d *core.Design, widths []int) (*Table3Result, error) {
	ctx := context.Background()
	if d == nil {
		d = Design()
	}
	if len(widths) == 0 {
		widths = Table3Widths
	}
	names := d.AnalogNames()
	// Per width, point 0 is the all-share normalization point and point
	// i > 0 is combination i-1.
	points := append([]partition.Partition{d.AllShare()}, d.Candidates(partition.PaperPolicy)...)
	combos := points[1:]
	// Hash once for all the table's calls: a given hash spares each
	// Engine.Schedule call its own Validate and DesignHash.
	if err := d.Validate(); err != nil {
		return nil, err
	}
	hash, err := core.DesignHash(d)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(core.EngineOptions{MaxWidth: slices.Max(widths)})
	times := make([]int64, len(widths)*len(points))
	errs := make([]error, len(times))
	if err := core.ForEachCtx(ctx, len(times), core.DefaultWorkers(), func(i int) {
		s, err := eng.Schedule(ctx, d, points[i%len(points)], widths[i/len(points)], hash)
		if err != nil {
			errs[i] = err
			return
		}
		times[i] = s.Makespan
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Table3Result{Widths: widths, Spread: make([]float64, len(widths)), Lowest: make([]string, len(widths))}
	rows := make([]Table3Row, len(combos))
	for i, p := range combos {
		rows[i] = Table3Row{Wrappers: p.Wrappers(), Label: p.FormatShared(names), CT: make([]float64, len(widths))}
	}
	for wi := range widths {
		t := times[wi*len(points):][:len(points)]
		low, high := -1.0, -1.0
		for i := range combos {
			ct := 100 * float64(t[i+1]) / float64(t[0])
			rows[i].CT[wi] = ct
			if low < 0 || ct < low {
				low = ct
				res.Lowest[wi] = rows[i].Label
			}
			if ct > high {
				high = ct
			}
		}
		res.Spread[wi] = high - low
	}

	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Wrappers != rows[b].Wrappers {
			return rows[a].Wrappers > rows[b].Wrappers
		}
		return rows[a].Label < rows[b].Label
	})
	res.Rows = rows
	return res, nil
}

// RenderTable3 formats the result like the paper's Table 3.
func RenderTable3(r *Table3Result) string {
	var sb strings.Builder
	sb.WriteString("Table 3: normalized SOC test time CT per wrapper-sharing combination\n")
	sb.WriteString("(100 = all analog cores share one wrapper)\n\n")
	fmt.Fprintf(&sb, "%-3s  %-22s", "Nw", "sharing")
	for _, w := range r.Widths {
		fmt.Fprintf(&sb, "  %8s", fmt.Sprintf("W=%d", w))
	}
	sb.WriteByte('\n')
	prev := -1
	for _, row := range r.Rows {
		nw := ""
		if row.Wrappers != prev {
			nw = fmt.Sprintf("%d", row.Wrappers)
			prev = row.Wrappers
		}
		fmt.Fprintf(&sb, "%-3s  %-22s", nw, row.Label)
		for _, ct := range row.CT {
			fmt.Fprintf(&sb, "  %8.1f", ct)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("\nspread (max-min)       ")
	for _, s := range r.Spread {
		fmt.Fprintf(&sb, "  %8.2f", s)
	}
	sb.WriteString("\nlowest combination     ")
	for _, l := range r.Lowest {
		fmt.Fprintf(&sb, "  %s", l)
	}
	sb.WriteString("\n(paper spreads: 2.45, 7.36, 17.18 for W=32,48,64)\n")
	return sb.String()
}

// AnalogOnlyLowerBounds recomputes, for reference, the Table 1 LTB in
// cycles for a combination — used by the CLI to cross-link tables.
func AnalogOnlyLowerBounds(d *core.Design, p partition.Partition) (int64, error) {
	return analog.LowerBoundCycles(d.Analog, p)
}

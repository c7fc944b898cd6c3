package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"strconv"
	"testing"
)

// updateGolden regenerates testdata/golden_tables.json from the current
// code:
//
//	go test ./internal/experiments -run TestUpdateGoldenSnapshot -update
//
// Only legitimate after an intentional result change — see README.md in
// this directory for the procedure.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_tables.json from the current code")

// The golden snapshot in testdata/golden_tables.json was captured from
// the straightforward pre-optimization implementation (PR 1). Every
// perf layer added since — bitmask occupancy, merged candidate sweeps,
// pruned option scans, the design-level staircase cache — claims to be
// an exact transformation, so the tables must reproduce it bit for bit:
// float64 payloads are compared as raw bits, not within an epsilon. If
// an optimization legitimately needs to change these numbers, that is a
// result change, not a perf change; regenerate the snapshot and say so
// in the change log.
type goldenRow struct {
	Label string   `json:"label"`
	CT    []uint64 `json:"ct_bits"`
}
type goldenCell struct {
	Width     int    `json:"width"`
	WT        uint64 `json:"wt_bits"`
	ExhCost   uint64 `json:"exh_cost_bits"`
	ExhNEval  int    `json:"exh_neval"`
	ExhSel    string `json:"exh_sel"`
	HeurCost  uint64 `json:"heur_cost_bits"`
	HeurNEval int    `json:"heur_neval"`
	HeurSel   string `json:"heur_sel"`
	Reduction uint64 `json:"reduction_bits"`
	Optimal   bool   `json:"optimal"`
}
type golden struct {
	Table3Widths []int        `json:"table3_widths"`
	Table3Spread []uint64     `json:"table3_spread_bits"`
	Table3Lowest []string     `json:"table3_lowest"`
	Table3Rows   []goldenRow  `json:"table3_rows"`
	Table4Cells  []goldenCell `json:"table4_cells"`

	// Human-readable duplicates of the headline numbers, for reviewers
	// diffing the snapshot; the tests compare only the bit fields.
	Table3SpreadStr   []string `json:"table3_spread_str"`
	MeanReductionStr  string   `json:"mean_reduction_str"`
	OptimalPercentStr string   `json:"optimal_percent_str"`
}

func loadGolden(t *testing.T) *golden {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_tables.json")
	if err != nil {
		t.Fatal(err)
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	return &g
}

func TestTable3BitIdenticalToGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("TAM sweeps are slow")
	}
	g := loadGolden(t)
	res, err := Table3(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkTable3Golden(t, g, res)
}

// checkTable3Golden compares a Table 3 result — however produced —
// against the golden snapshot, bit for bit.
func checkTable3Golden(t *testing.T, g *golden, res *Table3Result) {
	t.Helper()
	if len(res.Widths) != len(g.Table3Widths) {
		t.Fatalf("widths = %v, want %v", res.Widths, g.Table3Widths)
	}
	for i, w := range g.Table3Widths {
		if res.Widths[i] != w {
			t.Fatalf("widths = %v, want %v", res.Widths, g.Table3Widths)
		}
		if got, want := math.Float64bits(res.Spread[i]), g.Table3Spread[i]; got != want {
			t.Errorf("spread[W=%d] = %v (bits %#x), want bits %#x", w, res.Spread[i], got, want)
		}
		if res.Lowest[i] != g.Table3Lowest[i] {
			t.Errorf("lowest[W=%d] = %q, want %q", w, res.Lowest[i], g.Table3Lowest[i])
		}
	}
	if len(res.Rows) != len(g.Table3Rows) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(g.Table3Rows))
	}
	for i, want := range g.Table3Rows {
		got := res.Rows[i]
		if got.Label != want.Label {
			t.Errorf("row %d label = %q, want %q", i, got.Label, want.Label)
			continue
		}
		for k := range want.CT {
			if math.Float64bits(got.CT[k]) != want.CT[k] {
				t.Errorf("row %s CT[W=%d] = %v, bits differ from golden", got.Label, g.Table3Widths[k], got.CT[k])
			}
		}
	}
}

func TestTable4BitIdenticalToGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	g := loadGolden(t)
	res, err := Table4(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkTable4Golden(t, g, res)
}

// checkTable4Golden compares a Table 4 result — however produced —
// against the golden snapshot, bit for bit, including the headline
// numbers the paper quotes.
func checkTable4Golden(t *testing.T, g *golden, res *Table4Result) {
	t.Helper()
	if len(res.Cells) != len(g.Table4Cells) {
		t.Fatalf("cells = %d, want %d", len(res.Cells), len(g.Table4Cells))
	}
	for i, want := range g.Table4Cells {
		got := res.Cells[i]
		if got.Width != want.Width || math.Float64bits(got.Weights.Time) != want.WT {
			t.Errorf("cell %d: grid position (W=%d wT=%v) diverged", i, got.Width, got.Weights.Time)
			continue
		}
		if math.Float64bits(got.ExhaustiveCost) != want.ExhCost ||
			got.ExhaustiveNEval != want.ExhNEval || got.ExhaustiveSel != want.ExhSel {
			t.Errorf("cell %d (W=%d wT=%v): exhaustive (%v, %d, %s) diverged from golden (%v, %d, %s)",
				i, got.Width, got.Weights.Time, got.ExhaustiveCost, got.ExhaustiveNEval, got.ExhaustiveSel,
				math.Float64frombits(want.ExhCost), want.ExhNEval, want.ExhSel)
		}
		if math.Float64bits(got.HeuristicCost) != want.HeurCost ||
			got.HeuristicNEval != want.HeurNEval || got.HeuristicSel != want.HeurSel {
			t.Errorf("cell %d (W=%d wT=%v): heuristic (%v, %d, %s) diverged from golden (%v, %d, %s)",
				i, got.Width, got.Weights.Time, got.HeuristicCost, got.HeuristicNEval, got.HeuristicSel,
				math.Float64frombits(want.HeurCost), want.HeurNEval, want.HeurSel)
		}
		if math.Float64bits(got.ReductionPercent) != want.Reduction || got.Optimal != want.Optimal {
			t.Errorf("cell %d (W=%d wT=%v): reduction/optimal diverged", i, got.Width, got.Weights.Time)
		}
	}
	// The headline numbers the paper (and CHANGES.md) quote.
	if got := res.MeanReduction(); math.Abs(got-53.84615384615385) > 1e-12 {
		t.Errorf("mean reduction = %v, want 53.846...", got)
	}
	if got := 100 * res.OptimalFraction(); math.Abs(got-93.33333333333333) > 1e-12 {
		t.Errorf("optimal%% = %v, want 93.333...", got)
	}
}

// TestUpdateGoldenSnapshot rewrites the golden snapshot when run with
// -update; otherwise it only checks that the snapshot parses. See
// README.md in this directory for when regeneration is legitimate.
func TestUpdateGoldenSnapshot(t *testing.T) {
	if !*updateGolden {
		loadGolden(t)
		t.Skip("pass -update to regenerate testdata/golden_tables.json")
	}
	t3, err := Table3(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Table4(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := golden{
		Table3Widths:      t3.Widths,
		Table3Lowest:      t3.Lowest,
		MeanReductionStr:  strconv.FormatFloat(t4.MeanReduction(), 'g', -1, 64),
		OptimalPercentStr: strconv.FormatFloat(100*t4.OptimalFraction(), 'g', -1, 64),
	}
	for _, s := range t3.Spread {
		g.Table3Spread = append(g.Table3Spread, math.Float64bits(s))
		g.Table3SpreadStr = append(g.Table3SpreadStr, strconv.FormatFloat(s, 'g', -1, 64))
	}
	for _, row := range t3.Rows {
		gr := goldenRow{Label: row.Label}
		for _, ct := range row.CT {
			gr.CT = append(gr.CT, math.Float64bits(ct))
		}
		g.Table3Rows = append(g.Table3Rows, gr)
	}
	for _, c := range t4.Cells {
		g.Table4Cells = append(g.Table4Cells, goldenCell{
			Width:     c.Width,
			WT:        math.Float64bits(c.Weights.Time),
			ExhCost:   math.Float64bits(c.ExhaustiveCost),
			ExhNEval:  c.ExhaustiveNEval,
			ExhSel:    c.ExhaustiveSel,
			HeurCost:  math.Float64bits(c.HeuristicCost),
			HeurNEval: c.HeuristicNEval,
			HeurSel:   c.HeuristicSel,
			Reduction: math.Float64bits(c.ReductionPercent),
			Optimal:   c.Optimal,
		})
	}
	data, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_tables.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("regenerated testdata/golden_tables.json — record why in CHANGES.md")
}

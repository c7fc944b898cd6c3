package experiments

import (
	"math"
	"strings"
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
)

func TestDesignIsValid(t *testing.T) {
	d := Design()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Name != "p93791m" || len(d.Analog) != 5 {
		t.Errorf("design = %s with %d analog cores", d.Name, len(d.Analog))
	}
}

func TestTable1MatchesPaperLTB(t *testing.T) {
	rows, err := Table1(analog.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 26 {
		t.Fatalf("rows = %d, want 26", len(rows))
	}
	// Spot-check LTB values against the paper (full coverage is in the
	// analog package tests).
	want := map[string]float64{
		"{A,C}":        68.5,
		"{D,E}":        10.1,
		"{A,B,C,D}":    98.7,
		"{A,B,E}{C,D}": 56.0,
		"{A,B,C,D,E}":  100.0,
	}
	seen := 0
	for _, r := range rows {
		if ltb, ok := want[r.Label]; ok {
			seen++
			if math.Abs(r.LTB-ltb) > 0.11 {
				t.Errorf("%s: LTB = %.2f, want %.1f", r.Label, r.LTB, ltb)
			}
		}
		if r.CA <= 0 {
			t.Errorf("%s: C_A = %v", r.Label, r.CA)
		}
	}
	if seen != len(want) {
		t.Errorf("found %d of %d spot-check labels", seen, len(want))
	}
	text := RenderTable1(rows)
	for _, frag := range []string{"Table 1", "{A,B,C,D,E}", "C_A", "LTB"} {
		if !strings.Contains(text, frag) {
			t.Errorf("rendering missing %q", frag)
		}
	}
}

func TestTable1SortedByWrappersThenCA(t *testing.T) {
	rows, err := Table1(analog.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Wrappers > rows[i-1].Wrappers {
			t.Fatalf("rows not grouped by wrapper count at %d", i)
		}
		if rows[i].Wrappers == rows[i-1].Wrappers && rows[i].CA > rows[i-1].CA {
			t.Fatalf("rows not ordered by C_A within group at %d", i)
		}
	}
}

func TestRenderTable2(t *testing.T) {
	text := RenderTable2()
	for _, frag := range []string{"Table 2", "I-Q", "78MHz", "136533", "636113"} {
		if !strings.Contains(text, frag) {
			t.Errorf("table 2 missing %q:\n%s", frag, text)
		}
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("TAM sweeps are slow")
	}
	res, err := Table3(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 26 || len(res.Widths) != 3 {
		t.Fatalf("rows=%d widths=%d", len(res.Rows), len(res.Widths))
	}
	// All-share is the normalization point: CT = 100 in every column.
	var allShare *Table3Row
	for i := range res.Rows {
		if res.Rows[i].Label == "{A,B,C,D,E}" {
			allShare = &res.Rows[i]
		}
		for _, ct := range res.Rows[i].CT {
			if ct <= 0 || ct > 120 {
				t.Errorf("%s: CT out of range: %v", res.Rows[i].Label, res.Rows[i].CT)
			}
		}
	}
	if allShare == nil {
		t.Fatal("all-share row missing")
	}
	for _, ct := range allShare.CT {
		if math.Abs(ct-100) > 1e-9 {
			t.Errorf("all-share CT = %v, want 100", allShare.CT)
		}
	}
	// Paper shape: the spread grows with the TAM width (2.45 -> 7.36 ->
	// 17.18) because the digital time shrinks while the analog
	// serialization chain does not.
	if !(res.Spread[0] < res.Spread[1] && res.Spread[1] < res.Spread[2]) {
		t.Errorf("spread not increasing with width: %v", res.Spread)
	}
	t.Logf("spreads: W=32 %.2f, W=48 %.2f, W=64 %.2f (paper: 2.45, 7.36, 17.18)", res.Spread[0], res.Spread[1], res.Spread[2])
	text := RenderTable3(res)
	if !strings.Contains(text, "Table 3") || !strings.Contains(text, "W=64") {
		t.Error("table 3 rendering broken")
	}
}

func TestTable4ReproducesHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	// A reduced sweep keeps the test fast; the full sweep runs in the
	// benchmark harness.
	res, err := Table4(nil, []int{32, 64}, []core.Weights{{Time: 0.5, Area: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.ExhaustiveNEval != 26 {
			t.Errorf("W=%d: exhaustive NEval = %d, want 26", c.Width, c.ExhaustiveNEval)
		}
		if c.HeuristicNEval >= 26 || c.HeuristicNEval < 4 {
			t.Errorf("W=%d: heuristic NEval = %d, want in [4,26)", c.Width, c.HeuristicNEval)
		}
		if c.HeuristicCost < c.ExhaustiveCost-1e-9 {
			t.Errorf("W=%d: heuristic beat exhaustive", c.Width)
		}
	}
	if res.OptimalFraction() < 0.5 {
		t.Errorf("heuristic optimal in only %.0f%% of cells", 100*res.OptimalFraction())
	}
	if res.MeanReduction() < 40 {
		t.Errorf("mean reduction %.1f%%, want >= 40%%", res.MeanReduction())
	}
	text := RenderTable4(res)
	if !strings.Contains(text, "Table 4") || !strings.Contains(text, "wT=0.50") {
		t.Error("table 4 rendering broken")
	}
}

func TestFigure5Reproduces(t *testing.T) {
	res, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPercent <= 0.5 || res.ErrorPercent > 12 {
		t.Errorf("wrapped-vs-direct error = %.2f%%, want a visible but usable error (paper ~5%%)", res.ErrorPercent)
	}
	text := RenderFigure5(res)
	for _, frag := range []string{"Figure 5", "LPF i/p", "Wrapper o/p", "extracted fc"} {
		if !strings.Contains(text, frag) {
			t.Errorf("figure 5 rendering missing %q", frag)
		}
	}
	csv := Figure5CSV(res, 250e3)
	if !strings.HasPrefix(csv, "freq_hz,") || strings.Count(csv, "\n") < 100 {
		t.Error("figure 5 CSV broken")
	}
}

func TestSection5Facts(t *testing.T) {
	f, err := Section5()
	if err != nil {
		t.Fatal(err)
	}
	if f.FlashComparators8 != 256 || f.ModularComparators8 != 32 {
		t.Errorf("comparators = %d/%d, want 256/32", f.FlashComparators8, f.ModularComparators8)
	}
	if f.DACResistorRatio != 8 {
		t.Errorf("resistor ratio = %v, want 8", f.DACResistorRatio)
	}
	if f.WrapperAreaMM2 != 0.02 {
		t.Errorf("area = %v", f.WrapperAreaMM2)
	}
	text := RenderSection5(f)
	for _, frag := range []string{"256", "32", "0.02", "core A"} {
		if !strings.Contains(text, frag) {
			t.Errorf("section 5 rendering missing %q", frag)
		}
	}
}

func TestRenderSpectrumEdgeCases(t *testing.T) {
	res, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	// Tiny plot dimensions are clamped, not broken.
	out := renderSpectrum(res.StimulusSpectrum, 250e3, 2, 1)
	if !strings.Contains(out, "kHz") {
		t.Error("clamped rendering broken")
	}
	// maxFreq below the first bin yields the empty-data message or a
	// plot with only DC; either way it must not panic.
	_ = renderSpectrum(res.StimulusSpectrum, 1, 20, 5)
}

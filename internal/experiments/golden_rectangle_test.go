package experiments

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/tam"
	"mixsoc/internal/wrapper"
)

// The rectangle backend's own golden snapshot. The paper tables pin the
// default occupancy packer; this file pins the opt-in rectangle
// bin-packing backend on the same weights-major paper grid, so a change
// to the diagonal ordering or its polish pass shows up as a diff here —
// and only here. The companion cross-check re-runs the default grid in
// the same process and holds it to the Table 4 golden bit for bit, so
// the alternative backend can never bleed into the published numbers.
type goldenRectangleCell struct {
	Width     int    `json:"width"`
	WT        uint64 `json:"wt_bits"`
	ExhCost   uint64 `json:"exh_cost_bits"`
	ExhNEval  int    `json:"exh_neval"`
	ExhSel    string `json:"exh_sel"`
	HeurCost  uint64 `json:"heur_cost_bits"`
	HeurNEval int    `json:"heur_neval"`
	HeurSel   string `json:"heur_sel"`
}

type goldenRectangle struct {
	Cells []goldenRectangleCell `json:"cells"`
}

// gridCells runs both solvers over the paper grid with the given packer
// (nil = the default occupancy path) and returns one row per cell. Each
// run gets fresh schedule caches — cached schedules are packer-specific
// — while the wrapper staircase cache, which is packer-independent, is
// deliberately shared by the cross-check below.
// rectanglePacker resolves the rectangle backend from the registry.
func rectanglePacker(t *testing.T) tam.Packer {
	t.Helper()
	p, err := tam.Lookup(tam.BackendRectangle)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func gridCells(t *testing.T, stairs *wrapper.StaircaseCache, packer tam.Packer) []goldenRectangleCell {
	t.Helper()
	d := Design()
	names := d.AnalogNames()
	caches := make(map[int]*core.ScheduleCache, len(PaperWidths))
	for _, w := range PaperWidths {
		caches[w] = core.NewScheduleCache()
	}
	var cells []goldenRectangleCell
	for _, wt := range PaperWeightSettings {
		for _, w := range PaperWidths {
			pl := core.NewPlanner(d, w, wt)
			pl.CostModel = analog.PaperCostModel()
			pl.Cache = caches[w]
			pl.Staircases = stairs
			pl.Packer = packer
			ex, err := pl.Exhaustive()
			if err != nil {
				t.Fatalf("exhaustive W=%d wT=%v: %v", w, wt.Time, err)
			}
			h, err := pl.CostOptimizer()
			if err != nil {
				t.Fatalf("cost-optimizer W=%d wT=%v: %v", w, wt.Time, err)
			}
			cells = append(cells, goldenRectangleCell{
				Width:     w,
				WT:        math.Float64bits(wt.Time),
				ExhCost:   math.Float64bits(ex.Best.Cost),
				ExhNEval:  ex.NEval,
				ExhSel:    ex.Best.Label(names),
				HeurCost:  math.Float64bits(h.Best.Cost),
				HeurNEval: h.NEval,
				HeurSel:   h.Best.Label(names),
			})
		}
	}
	return cells
}

func loadGoldenRectangle(t *testing.T) *goldenRectangle {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_rectangle.json")
	if err != nil {
		t.Fatal(err)
	}
	var g goldenRectangle
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	return &g
}

// TestRectangleBitIdenticalToGolden holds the rectangle backend to its
// snapshot, then re-runs the default grid — sharing the same staircase
// cache the rectangle run used — and holds it to the Table 4 golden bit
// for bit: selecting a backend for one caller must leave the default
// paper tables byte-identical.
func TestRectangleBitIdenticalToGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solver sweeps are slow")
	}
	g := loadGoldenRectangle(t)
	base := loadGolden(t)
	stairs := wrapper.NewStaircaseCache(PaperWidths[len(PaperWidths)-1])
	cells := gridCells(t, stairs, rectanglePacker(t))
	if len(cells) != len(g.Cells) {
		t.Fatalf("cells = %d, want %d", len(cells), len(g.Cells))
	}
	for i, want := range g.Cells {
		if cells[i] != want {
			t.Errorf("cell %d (W=%d): rectangle run %+v diverged from golden %+v", i, cells[i].Width, cells[i], want)
		}
	}
	def := gridCells(t, stairs, nil)
	if len(def) != len(base.Table4Cells) {
		t.Fatalf("default grid has %d cells, Table 4 golden %d", len(def), len(base.Table4Cells))
	}
	for i, cell := range def {
		t4 := base.Table4Cells[i]
		if cell.Width != t4.Width || cell.WT != t4.WT {
			t.Fatalf("cell %d: grid order diverged from Table 4 golden", i)
		}
		if cell.ExhCost != t4.ExhCost || cell.ExhNEval != t4.ExhNEval || cell.ExhSel != t4.ExhSel {
			t.Errorf("cell %d (W=%d): default exhaustive result drifted from Table 4 golden after rectangle run", i, cell.Width)
		}
		if cell.HeurCost != t4.HeurCost || cell.HeurNEval != t4.HeurNEval || cell.HeurSel != t4.HeurSel {
			t.Errorf("cell %d (W=%d): default heuristic result drifted from Table 4 golden after rectangle run", i, cell.Width)
		}
	}
}

// TestUpdateRectangleGoldenSnapshot rewrites
// testdata/golden_rectangle.json when run with -update, alongside the
// main snapshot; otherwise it only checks that the snapshot parses.
func TestUpdateRectangleGoldenSnapshot(t *testing.T) {
	if !*updateGolden {
		loadGoldenRectangle(t)
		t.Skip("pass -update to regenerate testdata/golden_rectangle.json")
	}
	stairs := wrapper.NewStaircaseCache(PaperWidths[len(PaperWidths)-1])
	g := goldenRectangle{Cells: gridCells(t, stairs, rectanglePacker(t))}
	data, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden_rectangle.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("regenerated testdata/golden_rectangle.json — record why in CHANGES.md")
}

package proptest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mixsoc/internal/core"
	"mixsoc/internal/itc02"
	"mixsoc/internal/socgen"
	"mixsoc/internal/tam"
	"mixsoc/internal/wrapper"
)

// numSeeds designs go through the full property gauntlet. The seeds are
// fixed so any failure is reproducible with `-run 'Properties/seed042'`.
const numSeeds = 200

// propWidth is the TAM width the packing and planning properties use.
// It exceeds socgen's maximum analog TAM width, so every generated
// design is plannable at it.
const propWidth = 16

// curveWidths is the ascending width list for the monotonicity
// property.
var curveWidths = []int{8, 12, 16, 24}

var propWeights = core.Weights{Time: 0.5, Area: 0.5}

func TestGeneratedDesignProperties(t *testing.T) {
	for seed := int64(1); seed <= numSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			d, err := socgen.Generate(socgen.Options{Seed: seed, Class: socgen.Small})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			checkRoundTrip(t, d.Digital)
			checkStaircases(t, d)
			checkPacking(t, d)
			checkCodecInvariance(t, d)
			checkWidthMonotone(t, d)
		})
	}
}

// checkRoundTrip asserts the generated SOC validates and its .soc text
// survives format → parse → format byte-identically.
func checkRoundTrip(t *testing.T, soc *itc02.SOC) {
	t.Helper()
	if err := soc.Validate(); err != nil {
		t.Fatalf("generated SOC invalid: %v", err)
	}
	text := itc02.Format(soc)
	again, err := itc02.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("generated .soc does not parse: %v", err)
	}
	if second := itc02.Format(again); second != text {
		t.Fatal("format → parse → format is not byte-identical")
	}
}

// checkStaircases asserts every digital core's Pareto staircase starts
// at width 1 and is strictly improving: widths strictly increase, times
// strictly decrease.
func checkStaircases(t *testing.T, d *core.Design) {
	t.Helper()
	for _, m := range d.Digital.Cores() {
		pts, err := wrapper.Pareto(m, propWidth)
		if err != nil {
			t.Fatalf("module %d: Pareto: %v", m.ID, err)
		}
		if len(pts) == 0 || pts[0].Width != 1 {
			t.Fatalf("module %d: staircase must start at width 1: %v", m.ID, pts)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Width <= pts[i-1].Width || pts[i].Time >= pts[i-1].Time {
				t.Fatalf("module %d: staircase not strictly improving at %d: %v", m.ID, i, pts)
			}
		}
	}
}

// checkPacking packs the all-share configuration and asserts the
// schedule's structural invariants: it validates (no wire or group
// overlap), places every job exactly once, and its makespan is both the
// latest placement end and at least the area/serialization lower bound.
func checkPacking(t *testing.T, d *core.Design) {
	t.Helper()
	jobs, err := core.BuildJobs(d, d.AllShare(), propWidth)
	if err != nil {
		t.Fatalf("BuildJobs: %v", err)
	}
	s, err := tam.OccupancyPacker{}.Pack(jobs, propWidth)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	if len(s.Placements) != len(jobs) {
		t.Fatalf("placed %d of %d jobs", len(s.Placements), len(jobs))
	}
	placed := map[string]bool{}
	var maxEnd int64
	for i := range s.Placements {
		p := &s.Placements[i]
		if placed[p.Job.ID] {
			t.Fatalf("job %s placed twice", p.Job.ID)
		}
		placed[p.Job.ID] = true
		if p.End > maxEnd {
			maxEnd = p.End
		}
	}
	if s.Makespan != maxEnd {
		t.Fatalf("makespan %d != latest placement end %d", s.Makespan, maxEnd)
	}
	if lb := tam.AdmissibleFloor(jobs, propWidth).Makespan(propWidth); s.Makespan < lb {
		t.Fatalf("makespan %d below admissible lower bound %d", s.Makespan, lb)
	}
}

// checkCodecInvariance asserts planning is invariant under the design
// JSON codec: marshal → unmarshal must preserve the design hash and
// yield a bit-identical planning result.
func checkCodecInvariance(t *testing.T, d *core.Design) {
	t.Helper()
	res1, err := core.NewPlanner(d, propWidth, propWeights).CostOptimizer()
	if err != nil {
		t.Fatalf("CostOptimizer: %v", err)
	}
	data, err := core.MarshalDesign(d)
	if err != nil {
		t.Fatalf("MarshalDesign: %v", err)
	}
	d2, err := core.UnmarshalDesign(data)
	if err != nil {
		t.Fatalf("UnmarshalDesign: %v", err)
	}
	h1, err := core.DesignHash(d)
	if err != nil {
		t.Fatalf("DesignHash: %v", err)
	}
	h2, err := core.DesignHash(d2)
	if err != nil {
		t.Fatalf("DesignHash after round trip: %v", err)
	}
	if h1 != h2 {
		t.Fatalf("design hash changed across codec round trip: %s != %s", h1, h2)
	}
	res2, err := core.NewPlanner(d2, propWidth, propWeights).CostOptimizer()
	if err != nil {
		t.Fatalf("CostOptimizer after round trip: %v", err)
	}
	b1, err := json.Marshal(res1)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	b2, err := json.Marshal(res2)
	if err != nil {
		t.Fatalf("marshal round-tripped result: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("planning result changed across design codec round trip")
	}
}

// checkWidthMonotone asserts the all-share schedule makespan never
// increases as the TAM gets wider.
func checkWidthMonotone(t *testing.T, d *core.Design) {
	t.Helper()
	e := core.NewEngine(core.EngineOptions{MaxWidth: slices.Max(curveWidths)})
	curve := make([]int64, len(curveWidths))
	for i, w := range curveWidths {
		s, err := e.Schedule(context.Background(), d, d.AllShare(), w, "")
		if err != nil {
			t.Fatalf("Schedule W=%d: %v", w, err)
		}
		curve[i] = s.Makespan
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Fatalf("makespan increased with width: W=%d gives %d, W=%d gives %d",
				curveWidths[i-1], curve[i-1], curveWidths[i], curve[i])
		}
	}
}

// TestGeneratedDesignSweep pushes a sample of generated designs through
// the real sweep path — the grid API the service and CLI use — and
// asserts every point planned and the per-width best costs are finite.
func TestGeneratedDesignSweep(t *testing.T) {
	weights := []core.Weights{{Time: 0.25, Area: 0.75}, {Time: 0.75, Area: 0.25}}
	for seed := int64(10); seed <= numSeeds; seed += 40 {
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			d, err := socgen.Generate(socgen.Options{Seed: seed, Class: socgen.Small})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			points, err := core.SweepWith(d, curveWidths, weights, core.SweepOptions{})
			if err != nil {
				t.Fatalf("SweepWith: %v", err)
			}
			if want := len(curveWidths) * len(weights); len(points) != want {
				t.Fatalf("sweep returned %d points, want %d", len(points), want)
			}
			for _, pt := range points {
				if pt.Result == nil || pt.Result.Best.Cost < 0 {
					t.Fatalf("bad sweep point at W=%d wT=%.2f: %+v", pt.Width, pt.Weights.Time, pt.Result)
				}
			}
		})
	}
}

package core_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/experiments"
	"mixsoc/internal/registry"
	"mixsoc/internal/service"
)

// plannable returns a fresh copy of every registry benchmark with
// analog cores, built the way the server builds it, by name.
func plannable(t *testing.T) map[string]*core.Design {
	t.Helper()
	out := map[string]*core.Design{}
	for _, e := range registry.Entries() {
		if e.AnalogCores == 0 {
			continue
		}
		d := experiments.Design()
		if e.Name != service.BenchmarkP93791M {
			var err error
			if d, err = registry.Lookup(e.Name); err != nil {
				t.Fatal(err)
			}
		}
		out[e.Name] = d
	}
	return out
}

// Planning, sweeping (exhaustive and bounded) and batching every
// plannable registry benchmark through a server leaves each design's
// session with a candidate table equal to a fresh costing of a freshly
// built copy, and the session's design unmutated.
func TestSessionCandidateTablesMatchFreshCosting(t *testing.T) {
	e := core.NewEngine(core.EngineOptions{Workers: 2})
	s := service.New(service.Options{Engine: e, Workers: 2})
	t.Cleanup(s.Close)
	ctx := context.Background()
	designs := plannable(t)
	var batch service.BatchRequest
	for name := range designs {
		for _, wt := range []float64{0.25, 0.75} {
			req := service.PlanRequest{Benchmark: name, Width: 32, WT: &wt}
			if _, err := s.Plan(ctx, req); err != nil {
				t.Fatal(err)
			}
			req.Bounded = true
			batch.Items = append(batch.Items, req, service.PlanRequest{Benchmark: name, Width: 48, WT: &wt, Exhaustive: true})
		}
		for _, sw := range []service.SweepRequest{
			{Benchmark: name, Widths: []int{24, 40}, WTs: []float64{0, 0.5, 1}, Exhaustive: true},
			{Benchmark: name, Widths: []int{24, 40}, WTs: []float64{0, 0.5, 1}, Bounded: true},
		} {
			if _, err := s.Sweep(ctx, sw); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, err := s.Batch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range resp.Items {
		if it.Error != "" {
			t.Fatalf("batch item %d: %s", i, it.Error)
		}
	}
	for name, fresh := range designs {
		hash, err := core.DesignHash(fresh)
		if err != nil {
			t.Fatal(err)
		}
		got, d, ok, err := core.SessionTable(e, hash)
		if !ok || err != nil {
			t.Fatalf("%s: session present %v, table error %v", name, ok, err)
		}
		want, err := core.CostCandidates(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: session table differs from a fresh costing:\n got %+v\nwant %+v", name, got, want)
		}
		if h, err := core.DesignHash(d); err != nil || h != hash {
			t.Errorf("%s: session design re-hashes to %s (%v), want %s", name, h, err, hash)
		}
	}
}

// A plan served from an engine session — whose candidate table the
// earlier calls built at other weights — has the same Result JSON as a
// planner with no session costing its candidates afresh, for every
// solver and a range of weights.
func TestSessionPlansMatchSessionless(t *testing.T) {
	e := core.NewEngine(core.EngineOptions{Workers: 1})
	ctx := context.Background()
	for name, d := range plannable(t) {
		for _, opts := range []core.PlanOptions{{}, {Bounded: true}, {Exhaustive: true}, {Exhaustive: true, Bounded: true}} {
			for _, wt := range []float64{0.9, 0.25, 0.5, 0, 1} {
				w := core.Weights{Time: wt, Area: 1 - wt}
				got, err := e.PlanWith(ctx, d, 32, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				pl := core.NewPlanner(d, 32, w)
				pl.Bounded = opts.Bounded
				var want *core.Result
				if opts.Exhaustive {
					want, err = pl.Exhaustive()
				} else {
					want, err = pl.CostOptimizer()
				}
				if err != nil {
					t.Fatal(err)
				}
				if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
					t.Fatalf("%s %+v wT=%v: session result differs from sessionless:\n got %s\nwant %s", name, opts, wt, g, w)
				}
			}
		}
	}
}

// A sweep whose Configure hook installs another cost model prices with
// that model, on an engine session whose default-model table an earlier
// plan already built: every point equals a hand-built planner under the
// hook's model, and differs in CA from the default model's plan.
func TestConfigureSweepPricesWithItsOwnModel(t *testing.T) {
	e := core.NewEngine(core.EngineOptions{Workers: 2})
	ctx := context.Background()
	d := experiments.Design()
	def, err := e.Plan(ctx, d, 32, core.EqualWeights)
	if err != nil {
		t.Fatal(err)
	}
	paper := func(pl *core.Planner) { pl.CostModel = analog.PaperCostModel() }
	widths, weights := []int{24, 32}, []core.Weights{core.EqualWeights, {Time: 0.25, Area: 0.75}}
	for _, exhaustive := range []bool{false, true} {
		pts, err := e.Sweep(ctx, d, widths, weights, core.SweepOptions{Exhaustive: exhaustive, Configure: paper})
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range pts {
			pl := core.NewPlanner(experiments.Design(), pt.Width, pt.Weights)
			paper(pl)
			var want *core.Result
			if exhaustive {
				want, err = pl.Exhaustive()
			} else {
				want, err = pl.CostOptimizer()
			}
			if err != nil {
				t.Fatal(err)
			}
			if g, w := resultJSON(t, pt.Result), resultJSON(t, want); g != w {
				t.Fatalf("exhaustive=%v W=%d %+v: Configure sweep differs from a planner under its model:\n got %s\nwant %s", exhaustive, pt.Width, pt.Weights, g, w)
			}
		}
	}
	pts, err := e.Sweep(ctx, d, []int{32}, []core.Weights{core.EqualWeights}, core.SweepOptions{Configure: paper})
	if err != nil {
		t.Fatal(err)
	}
	if got, dflt := pts[0].Result.Best.CA, def.Best.CA; got == dflt {
		t.Errorf("the paper model's best CA %v equals the default model's: the sweep did not price with its own model", got)
	}
}

func resultJSON(t *testing.T, r *core.Result) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

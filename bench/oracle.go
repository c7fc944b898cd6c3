package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/experiments"
	"mixsoc/internal/itc02"
	"mixsoc/internal/registry"
	"mixsoc/internal/service"
)

// The oracles recompute served answers without the service: the design
// is resolved by this file's own reading of the request fields, and the
// plan comes from a one-shot planner with private caches and one worker.
// A served body must equal the oracle's service.WriteJSON bytes exactly.

// resolveDesign turns a request's design fields into a design the way
// the API documents them: an inline canonical-JSON design, an uploaded
// .soc with the paper's five analog cores attached (named "<soc>-m"), or
// a registry benchmark, p93791m being the experiments package's design.
func resolveDesign(inline json.RawMessage, soc, benchmark string) (*core.Design, error) {
	switch {
	case len(inline) > 0:
		return core.UnmarshalDesign(inline)
	case soc != "":
		parsed, err := itc02.Parse(strings.NewReader(soc))
		if err != nil {
			return nil, err
		}
		return &core.Design{Name: parsed.Name + "-m", Digital: parsed, Analog: analog.PaperCores()}, nil
	case benchmark == "" || benchmark == "p93791m":
		return experiments.Design(), nil
	}
	return registry.Lookup(benchmark)
}

// weightsOf returns the cost weights of a request's wt field (default 0.5).
func weightsOf(wt *float64) core.Weights {
	t := 0.5
	if wt != nil {
		t = *wt
	}
	return core.Weights{Time: t, Area: 1 - t}
}

// planKey is the identity under which a batch deduplicates plan items:
// everything the response bytes depend on.
func planKey(hash string, r service.PlanRequest) string {
	return fmt.Sprintf("%s|%d|%016x|%t|%t|%s", hash, r.Width, math.Float64bits(weightsOf(r.WT).Time), r.Exhaustive, r.Bounded, r.Backend)
}

func oraclePlan(r service.PlanRequest) (*service.PlanResponse, error) {
	d, err := resolveDesign(r.Design, r.SOC, r.Benchmark)
	if err != nil {
		return nil, err
	}
	h, err := core.DesignHash(d)
	if err != nil {
		return nil, err
	}
	w := weightsOf(r.WT)
	pl := core.NewPlanner(d, r.Width, w)
	pl.Workers = 1
	pl.Bounded = r.Bounded
	var res *core.Result
	if r.Exhaustive {
		res, err = pl.Exhaustive()
	} else {
		res, err = pl.CostOptimizer()
	}
	if err != nil {
		return nil, err
	}
	return &service.PlanResponse{DesignHash: h, Width: r.Width, Weights: w, Result: res}, nil
}

func oracleSweep(r service.SweepRequest) (*service.SweepResponse, error) {
	d, err := resolveDesign(r.Design, r.SOC, r.Benchmark)
	if err != nil {
		return nil, err
	}
	h, err := core.DesignHash(d)
	if err != nil {
		return nil, err
	}
	pts, err := core.SweepWith(d, r.Widths, sweepWeights(r.WTs), core.SweepOptions{Exhaustive: r.Exhaustive, Bounded: r.Bounded, Workers: 1})
	if err != nil {
		return nil, err
	}
	return &service.SweepResponse{DesignHash: h, Points: pts}, nil
}

// sweepWeights expands a sweep's wt axis (default the single 0.5).
func sweepWeights(wts []float64) []core.Weights {
	if len(wts) == 0 {
		wts = []float64{0.5}
	}
	out := make([]core.Weights, len(wts))
	for i := range wts {
		out[i] = weightsOf(&wts[i])
	}
	return out
}

func oracleBatch(r service.BatchRequest) (*service.BatchResponse, error) {
	resp := &service.BatchResponse{Items: make([]service.BatchItem, len(r.Items))}
	planned := map[string]*service.PlanResponse{}
	for i, item := range r.Items {
		d, err := resolveDesign(item.Design, item.SOC, item.Benchmark)
		if err != nil {
			return nil, err
		}
		h, err := core.DesignHash(d)
		if err != nil {
			return nil, err
		}
		key := planKey(h, item)
		p := planned[key]
		if p == nil {
			if p, err = oraclePlan(item); err != nil {
				return nil, err
			}
			planned[key] = p
		} else {
			resp.Deduped++
		}
		resp.Items[i] = service.BatchItem{Status: 200, Response: p}
	}
	return resp, nil
}

// golden is the part of the paper's golden snapshot the plan-hot check
// reads: Table 3's normalized test time CT of every candidate sharing
// configuration of p93791m at W = 32, 48 and 64, as raw float64 bits.
//
// Table 4's heuristic columns are not comparable to served plans: Table 4
// prices area with analog.PaperCostModel while the service plans with
// the default cost model, so costs, NEval and selections legitimately
// differ. CT depends only on the TAM schedules, which both share.
type golden struct {
	Widths []int `json:"table3_widths"`
	Rows   []struct {
		Label string   `json:"label"`
		CT    []uint64 `json:"ct_bits"`
	} `json:"table3_rows"`
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// check holds a served p93791m plan to the golden CT bits of every
// configuration it evaluated. It reports whether the request is a golden
// cell at all.
func (g *golden) check(r *service.PlanRequest, served []byte) (cell bool, err error) {
	p93791m := (r.Benchmark == "" || r.Benchmark == "p93791m") && len(r.Design) == 0 && r.SOC == ""
	if !p93791m {
		return false, nil
	}
	wi := slices.Index(g.Widths, r.Width)
	if wi < 0 {
		return false, nil
	}
	var resp service.PlanResponse
	if err := json.Unmarshal(served, &resp); err != nil {
		return true, err
	}
	want := make(map[string]uint64, len(g.Rows))
	for _, row := range g.Rows {
		want[row.Label] = row.CT[wi]
	}
	names := analog.Names(analog.PaperCores())
	if len(resp.Result.Evaluated) == 0 {
		return true, errors.New("golden cell evaluated no configuration")
	}
	for _, ev := range resp.Result.Evaluated {
		label := ev.Partition.FormatShared(names)
		bits, ok := want[label]
		if !ok {
			return true, fmt.Errorf("golden cell W=%d: configuration %s not in Table 3", r.Width, label)
		}
		if math.Float64bits(ev.CT) != bits {
			return true, fmt.Errorf("golden cell W=%d: CT of %s is %v, golden %v", r.Width, label, ev.CT, math.Float64frombits(bits))
		}
	}
	return true, nil
}

// pinned holds the per-workload digests a -seed 1 run must reproduce.
type pinned map[string]string

func loadPinned(path string) (pinned, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p := pinned{}
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func (p pinned) save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

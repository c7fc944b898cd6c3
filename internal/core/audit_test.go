package core

import (
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/itc02"
)

// These tests audit the planner against design shapes the paper
// benchmark never exercises — all-analog SOCs, single-module digital
// halves, and zero-test-time modules — which generated (internal/socgen)
// and uploaded SOCs can produce.

// analogPair returns two fresh paper cores (A and B) whose tests fit in
// narrow TAMs (max TAM width 4).
func analogPair() []*analog.Core {
	all := analog.PaperCores()
	return []*analog.Core{all[0], all[1]}
}

func TestPlanAllAnalogSOC(t *testing.T) {
	// Digital half is just the SOC module itself — no digital cores at
	// all. The planner must still partition and schedule the analog
	// tests.
	d := &Design{Name: "allanalog", Digital: &itc02.SOC{Name: "allanalog"}, Analog: analogPair()}
	if err := d.Validate(); err != nil {
		t.Fatalf("all-analog design invalid: %v", err)
	}
	for _, exhaustive := range []bool{false, true} {
		p := NewPlanner(d, 16, Weights{Time: 0.5, Area: 0.5})
		res, err := plan(p, exhaustive)
		if err != nil {
			t.Fatalf("exhaustive=%v: %v", exhaustive, err)
		}
		s, err := testSchedule(d, 16, res.Best.Partition)
		if err != nil {
			t.Fatalf("exhaustive=%v schedule: %v", exhaustive, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("exhaustive=%v: schedule invalid: %v", exhaustive, err)
		}
		if s.Makespan <= 0 {
			t.Errorf("exhaustive=%v: makespan %d, want > 0", exhaustive, s.Makespan)
		}
	}
}

func TestPlanSingleDigitalModule(t *testing.T) {
	soc := &itc02.SOC{Name: "one"}
	soc.Modules = append(soc.Modules, &itc02.Module{
		ID: 1, Name: "solo", Inputs: 8, Outputs: 8,
		Scan:  []int{40, 40},
		Tests: []itc02.Test{{ID: 1, Patterns: 100, ScanUse: true, TamUse: true}},
	})
	d := &Design{Name: "onem", Digital: soc, Analog: analogPair()}
	if err := d.Validate(); err != nil {
		t.Fatalf("single-module design invalid: %v", err)
	}
	p := NewPlanner(d, 16, Weights{Time: 0.5, Area: 0.5})
	res, err := p.CostOptimizer()
	if err != nil {
		t.Fatalf("CostOptimizer: %v", err)
	}
	s, err := testSchedule(d, 16, res.Best.Partition)
	if err != nil {
		t.Fatalf("ScheduleFor: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestZeroTimeModuleSkipped(t *testing.T) {
	// A valid module whose only test takes zero cycles (no patterns, no
	// scan load, no outputs) would become the degenerate staircase
	// {1, 0} that tam.Job.Validate rejects. DigitalJobsWith must skip
	// it: a zero-cycle test occupies no TAM time.
	soc := &itc02.SOC{Name: "ghosts"}
	soc.Modules = append(soc.Modules,
		&itc02.Module{
			ID: 1, Name: "real", Inputs: 8, Outputs: 8,
			Scan:  []int{40, 40},
			Tests: []itc02.Test{{ID: 1, Patterns: 100, ScanUse: true, TamUse: true}},
		},
		&itc02.Module{
			ID: 2, Name: "ghost", Inputs: 4,
			Tests: []itc02.Test{{ID: 1, Patterns: 0, TamUse: true}},
		},
	)
	if err := soc.Validate(); err != nil {
		t.Fatalf("zero-time SOC should be valid: %v", err)
	}
	jobs, err := DigitalJobsWith(&Design{Name: "g", Digital: soc}, 16, nil)
	if err != nil {
		t.Fatalf("DigitalJobsWith: %v", err)
	}
	if len(jobs) != 1 || jobs[0].ID != "real" {
		t.Fatalf("jobs = %v, want only the real module", jobs)
	}

	d := &Design{Name: "gm", Digital: soc, Analog: analogPair()}
	p := NewPlanner(d, 16, Weights{Time: 0.5, Area: 0.5})
	res, err := p.CostOptimizer()
	if err != nil {
		t.Fatalf("planning with a zero-time module: %v", err)
	}
	s, err := testSchedule(d, 16, res.Best.Partition)
	if err != nil {
		t.Fatalf("ScheduleFor: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestMinTAMWidth(t *testing.T) {
	if got := MinTAMWidth(paperDesign()); got != 10 {
		t.Errorf("MinTAMWidth(p93791m) = %d, want 10 (core D's converter test)", got)
	}
	digital := &Design{Name: "d", Digital: itc02.P93791()}
	if got := MinTAMWidth(digital); got != 1 {
		t.Errorf("MinTAMWidth(digital-only) = %d, want 1", got)
	}
}

// plan runs the requested solver.
func plan(p *Planner, exhaustive bool) (*Result, error) {
	if exhaustive {
		return p.Exhaustive()
	}
	return p.CostOptimizer()
}

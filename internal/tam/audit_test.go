package tam

import (
	"strings"
	"testing"

	"mixsoc/internal/wrapper"
)

// These tests pin down scheduler behavior at the edges of its input
// space — shapes the embedded paper benchmarks never exercise but that
// generated and uploaded SOCs can produce.

func TestOptimizeNoJobs(t *testing.T) {
	s, err := optimize(nil, 8)
	if err != nil {
		t.Fatalf("optimize(nil jobs): %v", err)
	}
	if len(s.Placements) != 0 || s.Makespan != 0 {
		t.Errorf("empty job list: got %d placements, makespan %d", len(s.Placements), s.Makespan)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("empty schedule does not validate: %v", err)
	}
}

func TestOptimizeJobWiderThanBin(t *testing.T) {
	jobs := []*Job{{ID: "wide", Options: []wrapper.Point{{Width: 12, Time: 100}}}}
	_, err := optimize(jobs, 8)
	if err == nil {
		t.Fatal("job needing 12 wires packed into an 8-wire bin")
	}
	if !strings.Contains(err.Error(), "needs at least") {
		t.Errorf("error should name the width shortfall, got: %v", err)
	}
}

func TestOptimizeSingleJob(t *testing.T) {
	jobs := []*Job{{ID: "only", Options: []wrapper.Point{
		{Width: 1, Time: 400}, {Width: 2, Time: 200}, {Width: 4, Time: 100},
	}}}
	s, err := optimize(jobs, 8)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	if s.Makespan != 100 {
		t.Errorf("single flexible job should run at its widest option: makespan %d, want 100", s.Makespan)
	}
}

func TestGroupSerializationForcesSequence(t *testing.T) {
	// Three 1-wire jobs in the same serialization group inside a very
	// wide bin: wires are abundant, so only the group constraint can
	// keep them apart, and the makespan must be the serial sum.
	jobs := []*Job{
		{ID: "a", Group: "g", Options: []wrapper.Point{{Width: 1, Time: 100}}},
		{ID: "b", Group: "g", Options: []wrapper.Point{{Width: 1, Time: 200}}},
		{ID: "c", Group: "g", Options: []wrapper.Point{{Width: 1, Time: 300}}},
	}
	s, err := optimize(jobs, 64)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	if s.Makespan != 600 {
		t.Errorf("serialized group makespan = %d, want 600", s.Makespan)
	}
}

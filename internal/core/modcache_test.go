package core

import (
	"context"
	"math"
	"testing"

	"mixsoc/internal/tam"
)

// nearDuplicate returns a copy of d with one digital module's pattern
// count bumped — a different DesignHash and DigitalHash, but all other
// modules content-identical to d's.
func nearDuplicate(t *testing.T, d *Design) *Design {
	t.Helper()
	nd, err := CloneDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	nd.Name = d.Name + "-rev2"
	m := nd.Digital.Modules[len(nd.Digital.Modules)-1]
	if len(m.Tests) == 0 {
		t.Fatalf("module %d has no tests to perturb", m.ID)
	}
	m.Tests[0].Patterns++
	return nd
}

func TestModuleHashInvariants(t *testing.T) {
	d := paperDesign()
	m := d.Digital.Modules[1]
	h1, err := ModuleHash(m)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := CloneDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	cm := clone.Digital.Modules[1]
	cm.ID += 1000
	cm.Name = "renamed"
	h2, err := ModuleHash(cm)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("ModuleHash depends on ID or name")
	}
	cm.Tests[0].Patterns++
	h3, err := ModuleHash(cm)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("ModuleHash ignores test content")
	}
}

func TestDigitalHashInvariants(t *testing.T) {
	d := paperDesign()
	h1, err := DigitalHash(d)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := CloneDesign(d)
	if err != nil {
		t.Fatal(err)
	}
	clone.Name = "other-display-name"
	clone.Digital.Name = "other-soc-name"
	clone.Analog = clone.Analog[:2] // analog content must not matter
	h2, err := DigitalHash(clone)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("DigitalHash depends on display names or analog cores")
	}
	nd := nearDuplicate(t, d)
	h3, err := DigitalHash(nd)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("DigitalHash ignores module content")
	}
}

// TestModuleCacheSharesAcrossSessions pins tentpole behavior: planning a
// near-duplicate design on the same engine hits the cross-design module
// caches (the two designs never share a session), and every result is
// bit-identical to a one-shot planner's, which has no module caches.
func TestModuleCacheSharesAcrossSessions(t *testing.T) {
	a := paperDesign()
	b := nearDuplicate(t, a)

	shared := NewEngine(EngineOptions{Workers: 1})
	ctx := context.Background()
	for _, d := range []*Design{a, b} {
		for _, width := range []int{24, 32} {
			rs, err := shared.Plan(ctx, d, width, EqualWeights)
			if err != nil {
				t.Fatal(err)
			}
			pl := NewPlanner(d, width, EqualWeights)
			pl.Workers = 1
			rp, err := pl.CostOptimizer()
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(rs.Best.Cost) != math.Float64bits(rp.Best.Cost) {
				t.Errorf("%s W=%d: module-cached cost %v != uncached %v", d.Name, width, rs.Best.Cost, rp.Best.Cost)
			}
			if rs.NEval != rp.NEval {
				t.Errorf("%s W=%d: module-cached NEval %d != uncached %d", d.Name, width, rs.NEval, rp.NEval)
			}
		}
	}

	m := shared.Metrics()
	if m.ModuleStairs.Hits == 0 {
		t.Error("near-duplicate design produced no module staircase hits")
	}
	if m.ModuleStairs.Misses == 0 || m.ModuleStairEntries == 0 {
		t.Errorf("staircase store never filled: %+v entries=%d", m.ModuleStairs, m.ModuleStairEntries)
	}
	// The perturbed module is a distinct entry; everything else is shared.
	if m.DesignMisses != 2 {
		t.Errorf("expected 2 sessions, got %d", m.DesignMisses)
	}
}

// TestDigitalJobsSharedAcrossAnalogVariants: two designs with the same
// digital SOC but different analog fits share built digital job slices
// under the engine's DigitalHash-keyed cache.
func TestDigitalJobsSharedAcrossAnalogVariants(t *testing.T) {
	a := paperDesign()
	b, err := CloneDesign(a)
	if err != nil {
		t.Fatal(err)
	}
	b.Name = "p93791m-fewer-analog"
	b.Analog = b.Analog[:3]

	e := NewEngine(EngineOptions{Workers: 1})
	ctx := context.Background()
	if _, err := e.Plan(ctx, a, 32, EqualWeights); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Plan(ctx, b, 32, EqualWeights); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.DigitalJobs.Hits == 0 {
		t.Errorf("analog variant rebuilt digital jobs: %+v", m.DigitalJobs)
	}
	if m.DigitalJobEntries == 0 {
		t.Error("digital-jobs cache holds no entries")
	}
}

// TestDigitalJobsCacheEviction: the entry cap holds, evicted entries
// just recompute, and repeated keys hit.
func TestDigitalJobsCacheEviction(t *testing.T) {
	c := NewDigitalJobsCache(2)
	d := paperDesign()
	builds := 0
	get := func(w int) {
		t.Helper()
		jobs, err := c.jobs("h", w, func() ([]*tam.Job, error) {
			builds++
			return DigitalJobs(d, w)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) == 0 {
			t.Fatal("no digital jobs built")
		}
	}
	for _, w := range []int{16, 24, 32, 40} {
		get(w)
	}
	if c.Len() > 2 {
		t.Errorf("cache holds %d entries, cap 2", c.Len())
	}
	if builds != 4 {
		t.Errorf("distinct widths built %d times, want 4", builds)
	}
	before := builds
	get(40) // still resident: the most recent insert survives eviction
	if builds != before {
		t.Errorf("resident entry rebuilt (%d builds)", builds)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses != uint64(before) {
		t.Errorf("stats %+v, want hits>0 misses=%d", st, before)
	}
}

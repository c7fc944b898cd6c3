package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/itc02"
	"mixsoc/internal/partition"
	"mixsoc/internal/tam"
)

// NoShare returns the partition with one wrapper per analog core.
func (d *Design) NoShare() partition.Partition {
	p := make(partition.Partition, len(d.Analog))
	for i := range p {
		p[i] = []int{i}
	}
	return p
}

// paperDesign builds p93791m: the embedded digital benchmark plus the
// five analog cores of Table 2.
func paperDesign() *Design {
	return &Design{Name: "p93791m", Digital: itc02.P93791(), Analog: analog.PaperCores()}
}

func TestDesignValidate(t *testing.T) {
	d := paperDesign()
	if err := d.Validate(); err != nil {
		t.Fatalf("paper design invalid: %v", err)
	}
	var nilD *Design
	if err := nilD.Validate(); err == nil {
		t.Error("nil design validated")
	}
	if err := (&Design{Name: "x"}).Validate(); err == nil {
		t.Error("design without digital SOC validated")
	}
	dup := paperDesign()
	dup.Analog[1] = dup.Analog[0]
	if err := dup.Validate(); err == nil {
		t.Error("duplicate analog core names validated")
	}
}

func TestAllShareNoShare(t *testing.T) {
	d := paperDesign()
	as := d.AllShare()
	if as.Wrappers() != 1 || as.N() != 5 {
		t.Errorf("AllShare = %v", as)
	}
	ns := d.NoShare()
	if ns.Wrappers() != 5 || ns.N() != 5 {
		t.Errorf("NoShare = %v", ns)
	}
	empty := &Design{Digital: &itc02.SOC{Name: "x"}}
	if empty.AllShare() != nil {
		t.Error("AllShare of analog-free design should be nil")
	}
}

func TestCandidates(t *testing.T) {
	d := paperDesign()
	if got := len(d.Candidates(nil)); got != 26 {
		t.Errorf("paper candidates = %d, want 26", got)
	}
	if got := len(d.Candidates(partition.FullPolicy)); got != 35 {
		t.Errorf("full-policy candidates = %d, want 35 (36 minus no-share)", got)
	}
}

func TestBuildJobs(t *testing.T) {
	d := paperDesign()
	jobs, err := BuildJobs(d, d.AllShare(), 32)
	if err != nil {
		t.Fatal(err)
	}
	// 32 digital cores + 20 analog tests (6+6+3+3+2).
	if len(jobs) != 52 {
		t.Fatalf("jobs = %d, want 52", len(jobs))
	}
	var analogJobs, digitalJobs int
	groups := map[string]int{}
	for _, j := range jobs {
		if j.Group == "" {
			digitalJobs++
			if len(j.Options) < 2 {
				t.Errorf("digital job %s has a trivial staircase", j.ID)
			}
		} else {
			analogJobs++
			groups[j.Group]++
			if len(j.Options) != 1 {
				t.Errorf("analog job %s should have exactly one option", j.ID)
			}
		}
	}
	if digitalJobs != 32 || analogJobs != 20 {
		t.Errorf("digital=%d analog=%d, want 32/20", digitalJobs, analogJobs)
	}
	if len(groups) != 1 {
		t.Errorf("all-share should yield one group, got %v", groups)
	}

	// No-share: five groups, one per core (a core's own tests still
	// serialize on its private wrapper).
	jobs, err = BuildJobs(d, d.NoShare(), 32)
	if err != nil {
		t.Fatal(err)
	}
	groups = map[string]int{}
	for _, j := range jobs {
		if j.Group != "" {
			groups[j.Group]++
		}
	}
	if len(groups) != 5 {
		t.Errorf("no-share groups = %v, want 5", groups)
	}

	if _, err := BuildJobs(d, d.AllShare(), 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := BuildJobs(d, partition.Partition{{0, 1}}, 32); err == nil {
		t.Error("partial partition accepted")
	}
}

func TestWeights(t *testing.T) {
	if err := (Weights{0.5, 0.5}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Weights{0.25, 0.75}).Validate(); err != nil {
		t.Error(err)
	}
	for _, w := range []Weights{{0.5, 0.6}, {-0.1, 1.1}, {1.2, -0.2}, {0, 0}} {
		if err := w.Validate(); err == nil {
			t.Errorf("weights %+v validated", w)
		}
	}
}

// testEvaluator returns the evaluator of an unwired planner for d at
// width w, over cache (nil: a private one).
func testEvaluator(d *Design, w int, cache *ScheduleCache) *evaluator {
	pl := NewPlanner(d, w, EqualWeights)
	pl.Cache = cache
	return pl.evaluator()
}

// testSchedule packs configuration p of d at width w on a fresh
// unwired evaluator.
func testSchedule(d *Design, w int, p partition.Partition) (*tam.Schedule, error) {
	return testEvaluator(d, w, nil).schedule(context.Background(), p, p.Key(nil))
}

func TestEvaluatorCachesAndCounts(t *testing.T) {
	d := paperDesign()
	e := testEvaluator(d, 32, nil)
	p := d.AllShare()
	s1, err := e.schedule(context.Background(), p, p.Key(nil))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.schedule(context.Background(), p.Clone(), p.Key(nil))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Makespan != s2.Makespan {
		t.Errorf("cache returned different time: %d vs %d", s1.Makespan, s2.Makespan)
	}
	if e.runs() != 1 {
		t.Errorf("runs = %d, want 1 (second call cached)", e.runs())
	}
}

func TestExhaustivePlan(t *testing.T) {
	d := paperDesign()
	pl := NewPlanner(d, 32, EqualWeights)
	res, err := pl.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if res.NEval != 26 {
		t.Errorf("exhaustive NEval = %d, want 26", res.NEval)
	}
	if res.Candidates != 26 || len(res.Evaluated) != 26 {
		t.Errorf("candidates=%d evaluated=%d, want 26/26", res.Candidates, len(res.Evaluated))
	}
	if res.Best.Cost <= 0 || res.Best.Cost > 100 {
		t.Errorf("best cost = %v, want in (0,100]", res.Best.Cost)
	}
	// The all-share configuration normalizes CT to 100 and can never be
	// strictly cheaper than the best.
	for _, ev := range res.Evaluated {
		if ev.Partition.Wrappers() == 1 && math.Abs(ev.CT-100) > 1e-9 {
			t.Errorf("all-share CT = %v, want 100", ev.CT)
		}
		if ev.Cost < res.Best.Cost {
			t.Errorf("missed better configuration %v", ev)
		}
	}
}

func TestCostOptimizerNearOptimal(t *testing.T) {
	d := paperDesign()
	for _, w := range []Weights{{0.5, 0.5}, {0.25, 0.75}, {0.75, 0.25}} {
		pl := NewPlanner(d, 32, w)
		ex, err := pl.Exhaustive()
		if err != nil {
			t.Fatal(err)
		}
		h, err := pl.CostOptimizer()
		if err != nil {
			t.Fatal(err)
		}
		if h.NEval >= ex.NEval {
			t.Errorf("w=%+v: heuristic NEval %d not below exhaustive %d", w, h.NEval, ex.NEval)
		}
		if h.NEval < 4 {
			t.Errorf("w=%+v: NEval %d below the 4-group lower bound", w, h.NEval)
		}
		if h.Best.Cost < ex.Best.Cost-1e-9 {
			t.Errorf("w=%+v: heuristic cost %v beats exhaustive %v (impossible)", w, h.Best.Cost, ex.Best.Cost)
		}
		// "near optimal": within 5% of the optimum on the paper design.
		if h.Best.Cost > ex.Best.Cost*1.05 {
			t.Errorf("w=%+v: heuristic cost %v more than 5%% above optimum %v", w, h.Best.Cost, ex.Best.Cost)
		}
		t.Logf("w=%+v: exhaustive %.1f (%s), heuristic %.1f (%s), NEval %d vs %d (%.1f%% saved)",
			w, ex.Best.Cost, ex.Best.Label(d.AnalogNames()),
			h.Best.Cost, h.Best.Label(d.AnalogNames()),
			ex.NEval, h.NEval, h.ReductionPercent())
	}
}

func TestCostOptimizerWithoutPrelimPrune(t *testing.T) {
	d := paperDesign()
	pl := NewPlanner(d, 32, EqualWeights)
	pl.PrunePrelim = false
	res, err := pl.CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	// Without member pruning, NEval = 4 reps + all remaining members of
	// surviving buckets; still well below 26 unless every bucket ties.
	if res.NEval > 26 {
		t.Errorf("NEval = %d > 26", res.NEval)
	}
}

func TestEpsilonRelaxation(t *testing.T) {
	d := paperDesign()
	tight := NewPlanner(d, 32, EqualWeights)
	loose := NewPlanner(d, 32, EqualWeights)
	loose.Epsilon = 100 // keep every bucket
	loose.PrunePrelim = false
	rt, err := tight.CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	rl, err := loose.CostOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	if rl.NEval < rt.NEval {
		t.Errorf("looser ε evaluated fewer configurations: %d < %d", rl.NEval, rt.NEval)
	}
	// With every bucket kept and no pruning, the heuristic degenerates to
	// exhaustive search and must find the optimum.
	ex, err := tight.Exhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rl.Best.Cost-ex.Best.Cost) > 1e-9 {
		t.Errorf("ε=100 heuristic cost %v != exhaustive %v", rl.Best.Cost, ex.Best.Cost)
	}
	if rl.NEval != ex.NEval {
		t.Errorf("ε=100 heuristic NEval %v != exhaustive %v", rl.NEval, ex.NEval)
	}
}

func TestPlannerSkipsInfeasibleCandidates(t *testing.T) {
	d := paperDesign()
	cm := analog.DefaultCostModel()
	// C (12-bit) cannot share with anything faster than 20 MHz.
	cm.Feasible = func(cores []*analog.Core) error {
		var hasC, hasFast bool
		for _, c := range cores {
			hasC = hasC || c.Name == "C"
			hasFast = hasFast || c.Requirements().Fsample > 20*analog.MHz
		}
		if hasC && hasFast {
			return errors.New("C cannot share with a fast core")
		}
		return nil
	}

	for _, solve := range []struct {
		name string
		run  func(*Planner) (*Result, error)
	}{
		{"exhaustive", (*Planner).Exhaustive},
		{"cost-optimizer", (*Planner).CostOptimizer},
	} {
		t.Run(solve.name, func(t *testing.T) {
			pl := NewPlanner(d, 32, EqualWeights)
			pl.CostModel = cm
			res, err := solve.run(pl)
			if err != nil {
				t.Fatal(err)
			}
			if res.Infeasible == 0 {
				t.Error("no candidates marked infeasible")
			}
			// The winner must not pair C with a fast core.
			for _, g := range res.Best.Partition {
				hasC, hasFast := false, false
				for _, ci := range g {
					switch d.Analog[ci].Name {
					case "C":
						hasC = true
					case "D", "E", "A", "B":
						if d.Analog[ci].Requirements().Fsample > 20*analog.MHz {
							hasFast = true
						}
					}
				}
				if hasC && hasFast {
					t.Errorf("infeasible group selected: %v", res.Best.Label(d.AnalogNames()))
				}
			}
			t.Logf("%s: %d infeasible skipped, best %s", solve.name,
				res.Infeasible, res.Best.Label(d.AnalogNames()))
		})
	}

	// A rule that rejects everything shared leaves no candidates under
	// the paper policy (which excludes no-sharing).
	all := cm
	all.Feasible = func([]*analog.Core) error { return fmt.Errorf("nothing may share") }
	pl := NewPlanner(d, 32, EqualWeights)
	pl.CostModel = all
	if _, err := pl.Exhaustive(); err == nil {
		t.Error("fully infeasible candidate set accepted")
	}
	if _, err := pl.CostOptimizer(); err == nil {
		t.Error("fully infeasible candidate set accepted by heuristic")
	}
}

func TestPlannerRejectsBadInput(t *testing.T) {
	d := paperDesign()
	bad := NewPlanner(d, 32, Weights{0.9, 0.9})
	if _, err := bad.Exhaustive(); err == nil {
		t.Error("bad weights accepted")
	}
	if _, err := bad.CostOptimizer(); err == nil {
		t.Error("bad weights accepted by heuristic")
	}
	noAnalog := NewPlanner(&Design{Digital: itc02.P93791()}, 32, EqualWeights)
	if _, err := noAnalog.Exhaustive(); err == nil {
		t.Error("analog-free design accepted")
	}
	narrow := NewPlanner(d, 4, EqualWeights) // core D needs 10 wires
	if _, err := narrow.Exhaustive(); err == nil {
		t.Error("TAM narrower than an analog test accepted")
	}
}

func TestScheduleSerializesSharedWrappers(t *testing.T) {
	d := paperDesign()
	p := partition.Partition{{0, 1, 4}, {2, 3}} // {A,B,E}{C,D}
	s, err := testSchedule(d, 48, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	spans := s.GroupSpans()
	if len(spans) != 2 {
		t.Fatalf("groups = %d, want 2", len(spans))
	}
	for g, sp := range spans {
		for i := 1; i < len(sp); i++ {
			if sp[i][0] < sp[i-1][1] {
				t.Errorf("group %s spans overlap: %v", g, sp)
			}
		}
	}
	if !strings.Contains(s.Gantt(60), "TAM width 48") {
		t.Error("gantt rendering broken")
	}
}

func TestEvaluationLabel(t *testing.T) {
	d := paperDesign()
	ev := Evaluation{Partition: partition.Partition{{0, 1}, {2}, {3}, {4}}}
	if got := ev.Label(d.AnalogNames()); got != "{A,B}" {
		t.Errorf("Label = %q", got)
	}
}

func BenchmarkExhaustiveW32(b *testing.B) {
	d := paperDesign()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlanner(d, 32, EqualWeights).Exhaustive(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostOptimizerW32(b *testing.B) {
	d := paperDesign()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlanner(d, 32, EqualWeights).CostOptimizer(); err != nil {
			b.Fatal(err)
		}
	}
}

package analog

import (
	"math"
	"testing"

	"mixsoc/internal/partition"
)

func paperPlacement() PlacementRouting {
	// A plausible floorplan: the two I-Q paths adjacent, the CODEC near
	// them, the down-converter and amplifier on the far side.
	return PlacementRouting{
		Positions: map[string]Point{
			"A": {1, 1}, "B": {1.5, 1}, "C": {2, 2},
			"D": {8, 7}, "E": {9, 8},
		},
		Diameter: 12, // chip diagonal-ish
		Scale:    1.0,
	}
}

// UniformRouting is the paper's representative model: r = (n−1)·Delta,
// the RoutingModel form of CostModel.RoutingFactor.
type UniformRouting struct {
	Delta float64
}

// Overhead implements RoutingModel.
func (u UniformRouting) Overhead(cores []*Core) float64 {
	if len(cores) <= 1 {
		return 0
	}
	return float64(len(cores)-1) * u.Delta
}

func TestUniformRouting(t *testing.T) {
	u := UniformRouting{Delta: 0.15}
	cores := PaperCores()
	if got := u.Overhead(cores[:1]); got != 0 {
		t.Errorf("single-core overhead = %v", got)
	}
	if got := u.Overhead(cores[:3]); math.Abs(got-0.30) > 1e-12 {
		t.Errorf("3-core overhead = %v, want 0.30", got)
	}
}

func TestPlacementRoutingDistance(t *testing.T) {
	pr := paperPlacement()
	cores := PaperCores()
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Adjacent cores A,B: distance 0.5, normalized 0.5/12.
	got := pr.Overhead([]*Core{cores[0], cores[1]})
	if math.Abs(got-0.5/12) > 1e-12 {
		t.Errorf("A,B overhead = %v, want %v", got, 0.5/12)
	}
	// Far cores A,D: much more expensive than A,B.
	far := pr.Overhead([]*Core{cores[0], cores[3]})
	if far <= got*5 {
		t.Errorf("A,D overhead %v not clearly above A,B %v", far, got)
	}
	// Cumulative pairwise distance: 3 cores sum three pairs.
	abc := pr.Overhead([]*Core{cores[0], cores[1], cores[2]})
	ab := pr.Overhead([]*Core{cores[0], cores[1]})
	ac := pr.Overhead([]*Core{cores[0], cores[2]})
	bc := pr.Overhead([]*Core{cores[1], cores[2]})
	if math.Abs(abc-(ab+ac+bc)) > 1e-12 {
		t.Errorf("cumulative distance broken: %v vs %v", abc, ab+ac+bc)
	}
	if pr.Overhead(cores[:1]) != 0 {
		t.Error("single core should have zero overhead")
	}
}

func TestPlacementRoutingFallback(t *testing.T) {
	pr := paperPlacement()
	unknown := &Core{Name: "Z", Tests: PaperCores()[4].Tests}
	cores := []*Core{PaperCores()[0], unknown}
	if got := pr.Overhead(cores); got != 0 {
		t.Errorf("nil fallback overhead = %v, want 0", got)
	}
	pr.Fallback = UniformRouting{Delta: 0.15}
	if got := pr.Overhead(cores); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("fallback overhead = %v, want 0.15", got)
	}
	bad := PlacementRouting{Scale: 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero diameter validated")
	}
	if !math.IsInf(bad.Overhead(cores), 1) {
		t.Error("misconfigured model should be conspicuous")
	}
}

func TestAreaOverheadWithPlacementRouting(t *testing.T) {
	cores := PaperCores()
	cm := PaperCostModel()
	pr := paperPlacement()

	// Nearby pair {A,B} beats far pair {A,D} under placement routing,
	// while the uniform model prices them identically.
	pAB := partition.Partition{{0, 1}, {2}, {3}, {4}}
	pAD := partition.Partition{{0, 3}, {1}, {2}, {4}}

	uniformAB, err := cm.AreaOverheadPercent(cores, pAB)
	if err != nil {
		t.Fatal(err)
	}
	uniformAD, err := cm.AreaOverheadPercent(cores, pAD)
	if err != nil {
		t.Fatal(err)
	}
	if uniformAB != uniformAD {
		t.Errorf("uniform model should not distinguish: %v vs %v", uniformAB, uniformAD)
	}

	placedAB, err := cm.AreaOverheadPercentWithRouting(cores, pAB, pr)
	if err != nil {
		t.Fatal(err)
	}
	placedAD, err := cm.AreaOverheadPercentWithRouting(cores, pAD, pr)
	if err != nil {
		t.Fatal(err)
	}
	if placedAB >= placedAD {
		t.Errorf("placement-aware model should prefer adjacent cores: {A,B}=%v vs {A,D}=%v", placedAB, placedAD)
	}

	// Nil routing model falls back to the plain computation.
	plain, err := cm.AreaOverheadPercentWithRouting(cores, pAB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain != uniformAB {
		t.Errorf("nil routing fallback = %v, want %v", plain, uniformAB)
	}

	// Bad partitions still rejected.
	if _, err := cm.AreaOverheadPercentWithRouting(cores, partition.Partition{{0}}, pr); err == nil {
		t.Error("bad partition accepted")
	}
}

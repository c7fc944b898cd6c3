package analog

import (
	"fmt"
	"math"

	"mixsoc/internal/partition"
)

// RoutingModel prices the routing overhead of a shared wrapper from the
// cores it serves. The paper defines r = (n−1)·k with k "a factor
// proportional to the cumulative distance of the n cores from each
// other", then uses a representative constant "without loss of
// generality"; its future work is "refining the cost measure based on
// the knowledge of core placement". PlacementRouting implements that
// refinement; CostModel.RoutingFactor is the representative constant.
type RoutingModel interface {
	// Overhead returns r for a wrapper serving the given cores; it must
	// return 0 for single-core wrappers.
	Overhead(cores []*Core) float64
}

// Point is a core location on the floorplan, in arbitrary consistent
// units (e.g. millimetres).
type Point struct{ X, Y float64 }

// PlacementRouting prices routing from actual core placement:
//
//	r = Scale · Σ pairwise distances between the wrapper's cores
//
// normalized by Diameter (the chip's reference length), so a pair of
// adjacent cores costs nearly nothing and a wrapper strung across the
// die approaches Scale per unit pair. Cores without a position fall
// back to Fallback (or a zero-overhead guess if nil).
type PlacementRouting struct {
	Positions map[string]Point // by core name
	Diameter  float64          // reference length; must be > 0
	Scale     float64          // overhead per normalized distance unit
	Fallback  RoutingModel     // used when any core has no position
}

// Overhead implements RoutingModel.
func (p PlacementRouting) Overhead(cores []*Core) float64 {
	if len(cores) <= 1 {
		return 0
	}
	if p.Diameter <= 0 {
		return math.Inf(1) // misconfigured; make it conspicuous
	}
	var sum float64
	for i := 0; i < len(cores); i++ {
		pi, ok := p.Positions[cores[i].Name]
		if !ok {
			return p.fallback(cores)
		}
		for j := i + 1; j < len(cores); j++ {
			pj, ok := p.Positions[cores[j].Name]
			if !ok {
				return p.fallback(cores)
			}
			sum += math.Hypot(pi.X-pj.X, pi.Y-pj.Y)
		}
	}
	return p.Scale * sum / p.Diameter
}

func (p PlacementRouting) fallback(cores []*Core) float64 {
	if p.Fallback != nil {
		return p.Fallback.Overhead(cores)
	}
	return 0
}

// Validate checks the placement model's configuration.
func (p PlacementRouting) Validate() error {
	if p.Diameter <= 0 {
		return fmt.Errorf("analog: placement routing needs a positive diameter, got %v", p.Diameter)
	}
	if p.Scale < 0 {
		return fmt.Errorf("analog: negative routing scale %v", p.Scale)
	}
	return nil
}

// AreaOverheadPercentWithRouting computes C_A like
// CostModel.AreaOverheadPercent but with an explicit routing model in
// place of the (n−1)·δ rule, enabling placement-aware planning. The
// AllShareRoutingFactor boundary override does not apply — the routing
// model itself prices large groups. Setting CostModel.Routing directly
// is equivalent and also reaches the planner.
func (cm CostModel) AreaOverheadPercentWithRouting(cores []*Core, p partition.Partition, routing RoutingModel) (float64, error) {
	cm.Routing = routing
	return cm.AreaOverheadPercent(cores, p)
}

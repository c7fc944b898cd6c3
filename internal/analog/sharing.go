package analog

import (
	"errors"
	"fmt"

	"mixsoc/internal/partition"
)

// ErrInfeasible marks sharing configurations rejected by a CostModel's
// feasibility rule (CostModel.Feasible). Planners treat such
// configurations as non-candidates rather than as failures; test with
// errors.Is.
var ErrInfeasible = errors.New("analog: infeasible wrapper sharing")

// CostModel computes the area-overhead cost C_A of equation (1) and the
// analog test-time lower bound LTB for wrapper-sharing configurations.
// The zero value is not useful; use DefaultCostModel or fill every field.
type CostModel struct {
	// RoutingFactor is δ: a wrapper serving n cores pays a routing
	// overhead r = (n-1)·δ of its own area ("a factor proportional to the
	// cumulative distance of the n cores from each other"; the paper uses
	// a representative constant). Wrappers serving one core pay none.
	RoutingFactor float64
	// AllShareRoutingFactor, when positive, replaces RoutingFactor for a
	// wrapper that serves every core of the SOC: such a wrapper must be
	// routed across the whole chip, and the paper prices that boundary
	// case at C_A = 100 (Table 1's all-share row), i.e. an effective
	// δ of 1.0 — sharing one wrapper among all cores buys no area.
	AllShareRoutingFactor float64
	// Routing, when non-nil, replaces the (n−1)·δ rule (and the
	// all-share override) entirely — e.g. PlacementRouting for
	// floorplan-aware planning, the paper's stated future work.
	Routing RoutingModel
	// Area prices a wrapper from its requirements.
	Area AreaModel
	// Rule selects how shared wrappers are priced (see SharedAreaRule).
	Rule SharedAreaRule
	// Feasible, if non-nil, rejects sharing groups (e.g. the paper's
	// high-speed/high-resolution exclusion). Nil allows everything.
	Feasible func(cores []*Core) error
}

// DefaultRoutingFactor is the representative δ. The value 0.15 is
// reverse-engineered from the paper's published C_A values, which it
// reproduces exactly under PaperCostModel (see unitAreaModel).
const DefaultRoutingFactor = 0.15

// DefaultCostModel is the physically detailed configuration: component
// -count area model, merged-requirements pricing for shared wrappers,
// δ = 0.15, everything feasible. Under this model sharing cores with
// conflicting requirements (e.g. the high-resolution CODEC with the
// wide, fast down-converter) can exceed the no-sharing cost, which the
// paper's feasibility caveat anticipates.
func DefaultCostModel() CostModel {
	return CostModel{
		RoutingFactor: DefaultRoutingFactor,
		Area:          DefaultPhysicalModel(),
		Rule:          MergedRequirements,
	}
}

// PaperCostModel is the calibration that reproduces the paper's Table 1
// C_A column exactly: every wrapper has unit area, shared wrappers are
// priced at the maximum member area (the literal a_max of equation (1)),
// the routing factor is δ = 0.15, and the one wrapper-for-everything
// configuration pays whole-chip routing (δ = 1.0, so C_A = 100). The
// experiments of Tables 1 and 4 use this model; DefaultCostModel is the
// physically detailed alternative.
func PaperCostModel() CostModel {
	return CostModel{
		RoutingFactor:         DefaultRoutingFactor,
		AllShareRoutingFactor: 1.0,
		Area:                  unitAreaModel{},
		Rule:                  MaxMemberArea,
	}
}

// routingOverhead returns r for a wrapper serving n cores.
func (cm CostModel) routingOverhead(n int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n-1) * cm.RoutingFactor
}

// groupArea prices the wrapper for one sharing group (excluding routing).
func (cm CostModel) groupArea(cores []*Core) float64 {
	switch cm.Rule {
	case MaxMemberArea:
		maxA := 0.0
		for _, c := range cores {
			if a := cm.Area.WrapperArea(c.Requirements()); a > maxA {
				maxA = a
			}
		}
		return maxA
	default: // MergedRequirements
		return cm.Area.WrapperArea(merge(cores))
	}
}

// AreaOverheadPercent computes C_A for the sharing configuration p over
// the given cores: 100 · Σ_j (1+r_j)·a_j / Σ_i a_i, where a_j is the
// area of wrapper j and the denominator is the no-sharing total.
// The no-sharing configuration therefore scores exactly 100, and the
// paper advises discarding configurations that score above 100.
func (cm CostModel) AreaOverheadPercent(cores []*Core, p partition.Partition) (float64, error) {
	if err := checkPartition(cores, p); err != nil {
		return 0, err
	}
	denominator := 0.0
	for _, c := range cores {
		denominator += cm.Area.WrapperArea(c.Requirements())
	}
	if denominator == 0 {
		return 0, fmt.Errorf("analog: zero total wrapper area")
	}
	numerator := 0.0
	for _, g := range p {
		members := pick(cores, g)
		if cm.Feasible != nil && len(members) > 1 {
			if err := cm.Feasible(members); err != nil {
				return 0, fmt.Errorf("%w: %v", ErrInfeasible, err)
			}
		}
		var routing float64
		if cm.Routing != nil {
			routing = cm.Routing.Overhead(members)
		} else {
			routing = cm.routingOverhead(len(g))
			if len(g) == len(cores) && len(g) > 1 && cm.AllShareRoutingFactor > 0 {
				routing = float64(len(g)-1) * cm.AllShareRoutingFactor
			}
		}
		numerator += (1 + routing) * cm.groupArea(members)
	}
	return 100 * numerator / denominator, nil
}

// Feasibility checks the configuration against the model's rule without
// pricing it. It returns nil when no rule is set.
func (cm CostModel) Feasibility(cores []*Core, p partition.Partition) error {
	if cm.Feasible == nil {
		return nil
	}
	if err := checkPartition(cores, p); err != nil {
		return err
	}
	for _, g := range p {
		if len(g) < 2 {
			continue
		}
		if err := cm.Feasible(pick(cores, g)); err != nil {
			return fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
	}
	return nil
}

// lowerBoundCycles returns LTB: the sharing-induced lower bound on the
// time to finish the analog cores under configuration p. Cores sharing a
// wrapper are serialized, so each shared wrapper is busy for the sum of
// its cores' test times; the bound is the busiest shared wrapper.
//
// Singleton wrappers are excluded, matching Table 1 of the paper (e.g.
// {A,B} scores 42.7 even though singleton core C alone takes longer):
// an unshared core adds no sharing-induced constraint — the TAM
// scheduler may overlap it freely with everything else.
// The no-sharing configuration therefore scores 0.
func lowerBoundCycles(cores []*Core, p partition.Partition) (int64, error) {
	if err := checkPartition(cores, p); err != nil {
		return 0, err
	}
	var bound int64
	for _, g := range p {
		if len(g) < 2 {
			continue
		}
		var usage int64
		for _, i := range g {
			usage += cores[i].TotalCycles()
		}
		if usage > bound {
			bound = usage
		}
	}
	return bound, nil
}

// NormalizedLTB returns LTB scaled to 100 at the all-share configuration
// (whose bound is the sum of every core's test time), the normalization
// of Table 1.
func NormalizedLTB(cores []*Core, p partition.Partition) (float64, error) {
	lb, err := lowerBoundCycles(cores, p)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range cores {
		total += c.TotalCycles()
	}
	if total == 0 {
		return 0, fmt.Errorf("analog: cores have zero total test time")
	}
	return 100 * float64(lb) / float64(total), nil
}

func checkPartition(cores []*Core, p partition.Partition) error {
	if p.N() != len(cores) {
		return fmt.Errorf("analog: partition covers %d items, have %d cores", p.N(), len(cores))
	}
	seen := make([]bool, len(cores))
	for _, g := range p {
		for _, i := range g {
			if i < 0 || i >= len(cores) {
				return fmt.Errorf("analog: partition references core %d of %d", i, len(cores))
			}
			if seen[i] {
				return fmt.Errorf("analog: partition repeats core %d", i)
			}
			seen[i] = true
		}
	}
	return nil
}

func pick(cores []*Core, idx []int) []*Core {
	out := make([]*Core, len(idx))
	for j, i := range idx {
		out[j] = cores[i]
	}
	return out
}

// Names returns the core labels in order, for partition formatting.
func Names(cores []*Core) []string {
	names := make([]string, len(cores))
	for i, c := range cores {
		names[i] = c.Name
	}
	return names
}

// Classes returns equivalence classes for partition deduplication: cores
// with identical test sets (same tests in the same order) share a class.
func Classes(cores []*Core) []int {
	classes := make([]int, len(cores))
	next := 0
	for i, c := range cores {
		classes[i] = -1
		for j := 0; j < i; j++ {
			if sameTests(c, cores[j]) {
				classes[i] = classes[j]
				break
			}
		}
		if classes[i] == -1 {
			classes[i] = next
			next++
		}
	}
	return classes
}

func sameTests(a, b *Core) bool {
	if len(a.Tests) != len(b.Tests) {
		return false
	}
	for i := range a.Tests {
		ta, tb := a.Tests[i], b.Tests[i]
		ta.Name, tb.Name = "", ""
		if ta != tb {
			return false
		}
	}
	return true
}

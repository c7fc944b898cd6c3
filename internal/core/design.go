// Package core implements the paper's primary contribution: unified test
// planning for mixed-signal SOCs with wrapped analog cores.
//
// A Design couples a digital SOC (internal/itc02) with a set of analog
// cores (internal/analog). Given a SOC-level TAM width W and cost weights
// wT (test time) and wA (area overhead), the planner decides
//
//  1. which analog cores share analog test wrappers (a set partition),
//  2. the wrapper design for every digital core (internal/wrapper), and
//  3. a rectangle-packed TAM schedule (internal/tam) in which tests of
//     cores sharing a wrapper never overlap in time,
//
// minimizing the total cost C = wT·CT + wA·CA of Section 4, where CT is
// the SOC test time normalized to the all-cores-share-one-wrapper case
// (the most constrained schedule) and CA is the area-overhead cost of
// equation (1).
//
// Two solvers are provided: Exhaustive evaluates every candidate sharing
// configuration with the TAM optimizer, and CostOptimizer implements the
// pruning heuristic of Figure 3, which groups configurations by their
// degree of sharing, evaluates only the most promising member of each
// group, eliminates uncompetitive groups using preliminary costs built
// from area overheads and analog test-time lower bounds, and fully
// evaluates just the surviving groups.
package core

import (
	"fmt"

	"mixsoc/internal/analog"
	"mixsoc/internal/itc02"
	"mixsoc/internal/partition"
	"mixsoc/internal/tam"
)

// Design is a mixed-signal SOC: a digital SOC plus embedded analog cores.
type Design struct {
	Name    string
	Digital *itc02.SOC
	Analog  []*analog.Core
}

// Validate checks both halves of the design.
func (d *Design) Validate() error {
	if d == nil {
		return fmt.Errorf("core: nil design")
	}
	if d.Digital == nil {
		return fmt.Errorf("core: design %s has no digital SOC", d.Name)
	}
	if err := d.Digital.Validate(); err != nil {
		return err
	}
	names := map[string]bool{}
	for _, c := range d.Analog {
		if err := c.Validate(); err != nil {
			return err
		}
		if names[c.Name] {
			return fmt.Errorf("core: duplicate analog core name %q", c.Name)
		}
		names[c.Name] = true
	}
	return nil
}

// AnalogNames returns the analog core labels, for partition formatting.
func (d *Design) AnalogNames() []string { return analog.Names(d.Analog) }

// MinTAMWidth returns the smallest SOC-level TAM width the design can
// be scheduled at: analog test jobs have one fixed width (the test's
// TAM width), so the widest analog test sets the floor; digital wrapper
// staircases always start at width 1. Planning below this width cannot
// succeed, which is how the serving layer rejects such requests up
// front instead of surfacing a packer error.
func MinTAMWidth(d *Design) int {
	min := 1
	for _, c := range d.Analog {
		for _, t := range c.Tests {
			if t.TAMWidth > min {
				min = t.TAMWidth
			}
		}
	}
	return min
}

// AllShare returns the partition in which every analog core shares one
// wrapper, the normalization point for CT. With no analog cores it
// returns nil.
func (d *Design) AllShare() partition.Partition {
	if len(d.Analog) == 0 {
		return nil
	}
	g := make([]int, len(d.Analog))
	for i := range g {
		g[i] = i
	}
	return partition.Partition{g}
}

// Candidates enumerates the sharing configurations the planner will
// consider: partitions of the analog cores deduplicated for identical
// cores and filtered by the policy (nil defaults to the paper's policy).
// The slice is the caller's own, but its partitions are shared with
// every other call over the same cores (see partition.Enumerate) and
// must be treated as read-only.
func (d *Design) Candidates(policy partition.Policy) []partition.Partition {
	if policy == nil {
		policy = partition.PaperPolicy
	}
	return partition.Enumerate(len(d.Analog), analog.Classes(d.Analog), policy)
}

// BuildJobs converts the design into TAM scheduling jobs for the given
// sharing configuration:
//
//   - each digital core becomes one flexible job carrying its wrapper
//     staircase (Pareto widths up to the TAM width);
//   - each analog test becomes one fixed 1-option job (its time does not
//     shrink with extra wires) tagged with the serialization group of the
//     wrapper that serves its core. Tests of cores sharing a wrapper —
//     and the several tests of a single core, which occupy the same
//     wrapper — therefore never overlap in time.
func BuildJobs(d *Design, p partition.Partition, width int) ([]*tam.Job, error) {
	digital, err := DigitalJobsWith(d, width, nil)
	if err != nil {
		return nil, err
	}
	return newAnalogJobs(d).appendTo(digital, p)
}

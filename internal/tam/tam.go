// Package tam schedules core tests on a flexible-width test access
// mechanism by rectangle packing, the approach of Iyengar, Chakrabarty
// and Marinissen ("On using rectangle packing for SOC wrapper/TAM
// co-optimization", VTS 2002) that the paper uses for its TAM
// optimization (Section 4, ref [6]).
//
// Each job (a digital core, or one analog test of a wrapped analog core)
// is a rectangle: a choice of TAM width w from its staircase and a test
// time T(w). The scheduler packs the rectangles into a bin of W wires ×
// unbounded time, assigning each job a start time and a contiguous band
// of wires, minimizing the SOC test time (makespan).
//
// Analog cores that share a test wrapper must be tested one at a time;
// such jobs carry a serialization group, and the scheduler never overlaps
// two jobs of the same group in time even when enough wires are free.
// This is the constraint that couples the paper's wrapper-sharing choice
// to the SOC test time.
package tam

import (
	"fmt"
	"sort"

	"mixsoc/internal/wrapper"
)

// Job is one schedulable unit of test.
type Job struct {
	// ID uniquely identifies the job, e.g. "core06" or "A/fc".
	ID string
	// Options is the job's width staircase: candidate (width, time)
	// pairs with strictly increasing width and strictly decreasing time.
	// A job with a single option has a fixed shape (analog tests).
	Options []wrapper.Point
	// Group, when non-empty, names a serialization group: no two jobs
	// with the same group may overlap in time (shared analog wrapper, or
	// the several tests of one analog core).
	Group string
}

// Validate checks the job's staircase invariants against the bin width.
func (j *Job) Validate(binWidth int) error {
	if j.ID == "" {
		return fmt.Errorf("tam: job has no ID")
	}
	if len(j.Options) == 0 {
		return fmt.Errorf("tam: job %s has no width options", j.ID)
	}
	for i, p := range j.Options {
		if p.Width < 1 || p.Time <= 0 {
			return fmt.Errorf("tam: job %s option %d: bad point (%d, %d)", j.ID, i, p.Width, p.Time)
		}
		if i > 0 && (p.Width <= j.Options[i-1].Width || p.Time >= j.Options[i-1].Time) {
			return fmt.Errorf("tam: job %s: staircase not strictly improving at option %d", j.ID, i)
		}
	}
	if j.Options[0].Width > binWidth {
		return fmt.Errorf("tam: job %s needs at least %d wires, TAM has %d", j.ID, j.Options[0].Width, binWidth)
	}
	return nil
}

// usable returns the options that fit in the bin: the leading prefix
// of Options with Width <= binWidth, as a sub-slice of Options itself
// (capacity capped, so an append can never write into the staircase).
// Validate guarantees strictly increasing widths, which makes that
// prefix exactly the set of options that fit; callers must treat the
// result as read-only, and asking for it allocates nothing.
func (j *Job) usable(binWidth int) []wrapper.Point {
	n := 0
	for n < len(j.Options) && j.Options[n].Width <= binWidth {
		n++
	}
	return j.Options[:n:n]
}

// widest returns the widest usable option, falling back to the job's
// narrowest option when even that exceeds the bin (callers that need a
// feasible placement validate separately; bounds stay conservative).
func (j *Job) widest(binWidth int) wrapper.Point {
	u := j.usable(binWidth)
	if len(u) == 0 {
		return j.Options[0]
	}
	return u[len(u)-1]
}

// minTime is the job's test time at its widest usable option.
func (j *Job) minTime(binWidth int) int64 { return j.widest(binWidth).Time }

// volume is the wire-cycle area of the job at its widest usable option,
// a proxy for the work the job adds to the bin.
func (j *Job) volume(binWidth int) int64 {
	p := j.widest(binWidth)
	return int64(p.Width) * p.Time
}

// minVolume is the smallest wire-cycle area among the job's usable
// options — the least work any feasible placement can add to the bin
// (staircases trade wires for time imperfectly, so the cheapest area
// need not sit at either end).
func (j *Job) minVolume(binWidth int) int64 {
	u := j.usable(binWidth)
	if len(u) == 0 {
		u = j.Options[:1]
	}
	best := int64(u[0].Width) * u[0].Time
	for _, p := range u[1:] {
		if v := int64(p.Width) * p.Time; v < best {
			best = v
		}
	}
	return best
}

// Placement is one scheduled job.
type Placement struct {
	Job    *Job
	Width  int   // chosen TAM width
	Start  int64 // start time, cycles
	End    int64 // Start + T(Width)
	WireLo int   // first wire of the contiguous band [WireLo, WireLo+Width)
}

func (p *Placement) overlapsTime(q *Placement) bool {
	return p.Start < q.End && q.Start < p.End
}

func (p *Placement) overlapsWires(q *Placement) bool {
	return p.WireLo < q.WireLo+q.Width && q.WireLo < p.WireLo+p.Width
}

// Schedule is a complete TAM test schedule.
type Schedule struct {
	Width      int // W, the SOC-level TAM width
	Placements []Placement
	Makespan   int64 // SOC test time in cycles
}

// Validate checks that the schedule is physically realizable: every
// placement inside the bin, no two placements sharing a wire at the same
// time, and no serialization group overlapping in time.
func (s *Schedule) Validate() error {
	for i := range s.Placements {
		p := &s.Placements[i]
		if p.Start < 0 || p.Width < 1 || p.WireLo < 0 || p.WireLo+p.Width > s.Width {
			return fmt.Errorf("tam: placement %s outside bin: wires [%d,%d) of %d, start %d",
				p.Job.ID, p.WireLo, p.WireLo+p.Width, s.Width, p.Start)
		}
		if p.End != p.Start+timeFor(p.Job, p.Width) {
			return fmt.Errorf("tam: placement %s: End %d inconsistent with staircase", p.Job.ID, p.End)
		}
		if p.End > s.Makespan {
			return fmt.Errorf("tam: placement %s ends at %d after makespan %d", p.Job.ID, p.End, s.Makespan)
		}
	}
	for i := range s.Placements {
		for j := i + 1; j < len(s.Placements); j++ {
			p, q := &s.Placements[i], &s.Placements[j]
			if p.overlapsTime(q) && p.overlapsWires(q) {
				return fmt.Errorf("tam: %s and %s overlap in time and wires", p.Job.ID, q.Job.ID)
			}
			if p.Job.Group != "" && p.Job.Group == q.Job.Group && p.overlapsTime(q) {
				return fmt.Errorf("tam: %s and %s share group %q but overlap in time", p.Job.ID, q.Job.ID, p.Job.Group)
			}
		}
	}
	return nil
}

// timeFor evaluates the job's staircase at width w: the time of the
// widest option with Width ≤ w (w must cover the narrowest option).
func timeFor(j *Job, w int) int64 {
	t := int64(-1)
	for _, p := range j.Options {
		if p.Width > w {
			break
		}
		t = p.Time
	}
	if t < 0 {
		panic(fmt.Sprintf("tam: job %s evaluated below minimum width", j.ID))
	}
	return t
}

// ByEnd returns the placements sorted by end time then ID, for stable
// reporting.
func (s *Schedule) ByEnd() []Placement {
	out := append([]Placement(nil), s.Placements...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].End != out[b].End {
			return out[a].End < out[b].End
		}
		return out[a].Job.ID < out[b].Job.ID
	})
	return out
}

// Utilization is the fraction of the W×makespan bin covered by tests.
func (s *Schedule) Utilization() float64 {
	if s.Makespan == 0 || s.Width == 0 {
		return 0
	}
	var used int64
	for i := range s.Placements {
		p := &s.Placements[i]
		used += int64(p.Width) * (p.End - p.Start)
	}
	return float64(used) / (float64(s.Width) * float64(s.Makespan))
}

// packTarget is the packers' improvement target: the makespan at which
// they stop polishing. It is the floor of the jobs with each job's
// volume taken at its widest usable option, which tracks what greedy
// packings actually spend but can exceed the area of a schedule that
// narrows a job — so it is not a bound on every valid schedule.
// AdmissibleLowerBound is.
func packTarget(jobs []*Job, width int) int64 {
	return floorOf(jobs, width, (*Job).volume).Makespan(width)
}

// AdmissibleLowerBound returns a makespan no valid schedule of the jobs
// in a bin of the given width — packed by this library or otherwise —
// can beat: any placement of job j covers at least minVolume(j)
// wire-cycles and runs at least its widest-option time, and a shared
// wrapper group's jobs serialize. Branch-and-bound pruning needs exactly
// that admissibility.
func AdmissibleLowerBound(jobs []*Job, width int) int64 {
	return AdmissibleFloor(jobs, width).Makespan(width)
}

// Floor holds the two sums a makespan lower bound is made of: the
// jobs' total wire-cycle volume and the longest time that must run
// serially — one job at its widest usable option, or one serialization
// group's jobs back to back.
type Floor struct {
	Volume  int64
	Longest int64
}

// Makespan is the floor's bound in a bin of the given width: the larger
// of the volume divided by the width, rounded up, and the longest
// serial time.
func (fl Floor) Makespan(width int) int64 {
	return max((fl.Volume+int64(width)-1)/int64(width), fl.Longest)
}

// AdmissibleFloor returns the Floor AdmissibleLowerBound reads. Volume
// adds over jobs and Longest is a maximum over jobs and groups, so a
// caller extending the job set with jobs in groups of their own can
// bound the union from this floor plus those jobs' volume and group
// times, without building the union.
func AdmissibleFloor(jobs []*Job, width int) Floor {
	return floorOf(jobs, width, (*Job).minVolume)
}

// floorOf is the one definition packTarget and AdmissibleLowerBound
// share: the total job volume (as the volume function measures it) and
// the longest unavoidable job or serialized group time.
func floorOf(jobs []*Job, width int, volumeOf func(*Job, int) int64) Floor {
	var fl Floor
	groupTime := map[string]int64{}
	for _, j := range jobs {
		fl.Volume += volumeOf(j, width)
		mt := j.minTime(width)
		fl.Longest = max(fl.Longest, mt)
		if j.Group != "" {
			groupTime[j.Group] += mt
		}
	}
	for _, t := range groupTime {
		fl.Longest = max(fl.Longest, t)
	}
	return fl
}

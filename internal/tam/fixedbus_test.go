package tam

import (
	"fmt"
	"sort"
	"testing"

	"mixsoc/internal/wrapper"
)

// This file holds the baseline TAM architecture the paper improves
// upon (Section 4: "Unlike the approach described in [5], this approach
// exploits the disparity in the TAM width requirements of digital and
// analog cores"): a fixed-width multi-bus TAM. The SOC's W wires are
// partitioned into a small number of buses; every core is assigned to
// exactly one bus and the tests on a bus run strictly one after another.
// Narrow analog tests assigned to a wide bus waste the unused wires for
// their whole duration, which is precisely the inefficiency rectangle
// packing removes. It lives in the tests as the oracle the flexible
// packer must beat (TestFlexibleBeatsFixedBus, BenchmarkAblationFixedBus).

// BusSlot is one test occupying a bus for an interval.
type BusSlot struct {
	Job        *Job
	Start, End int64
}

// Bus is one fixed-width partition of the TAM with its serial schedule.
type Bus struct {
	Width int
	Slots []BusSlot
}

// Load returns the bus's total busy time.
func (b *Bus) Load() int64 {
	if n := len(b.Slots); n > 0 {
		return b.Slots[n-1].End
	}
	return 0
}

// BusSchedule is a complete fixed-bus test schedule.
type BusSchedule struct {
	Buses    []Bus
	Makespan int64
}

// Validate checks the schedule: every slot back to back within its bus,
// serialization groups confined to a single bus (they are serial by
// construction then), and job widths within bus widths.
func (s *BusSchedule) Validate() error {
	groupBus := map[string]int{}
	for bi := range s.Buses {
		b := &s.Buses[bi]
		var prev int64
		for _, slot := range b.Slots {
			if slot.Start != prev {
				return fmt.Errorf("tam: bus %d: slot %s starts at %d, want %d", bi, slot.Job.ID, slot.Start, prev)
			}
			if slot.End-slot.Start != timeFor(slot.Job, b.Width) {
				return fmt.Errorf("tam: bus %d: slot %s has wrong duration", bi, slot.Job.ID)
			}
			if slot.Job.Options[0].Width > b.Width {
				return fmt.Errorf("tam: bus %d: job %s needs %d wires, bus has %d", bi, slot.Job.ID, slot.Job.Options[0].Width, b.Width)
			}
			if g := slot.Job.Group; g != "" {
				if other, ok := groupBus[g]; ok && other != bi {
					return fmt.Errorf("tam: group %q split across buses %d and %d", g, other, bi)
				}
				groupBus[g] = bi
			}
			prev = slot.End
		}
		if prev > s.Makespan {
			return fmt.Errorf("tam: bus %d load %d exceeds makespan %d", bi, prev, s.Makespan)
		}
	}
	return nil
}

// Utilization is the fraction of wire-cycles actually used: the job
// widths over the bus widths, integrated over the schedule.
func (s *BusSchedule) Utilization() float64 {
	var total, used int64
	for bi := range s.Buses {
		b := &s.Buses[bi]
		total += int64(b.Width) * s.Makespan
		for _, slot := range b.Slots {
			w := slot.Job.Options[0].Width
			// Staircase jobs use the widest option that fits the bus.
			for _, o := range slot.Job.Options {
				if o.Width <= b.Width {
					w = o.Width
				}
			}
			used += int64(w) * (slot.End - slot.Start)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}

// OptimizeFixedBus builds the best fixed-bus schedule it can: for every
// bus count from 1 to maxBuses it partitions the W wires as evenly as
// possible (wider buses first, so the widest job always fits somewhere),
// assigns whole serialization groups and then jobs longest-first to the
// least-loaded feasible bus, and keeps the bus count with the smallest
// makespan.
func OptimizeFixedBus(jobs []*Job, width, maxBuses int) (*BusSchedule, error) {
	if width < 1 {
		return nil, fmt.Errorf("tam: bin width %d < 1", width)
	}
	if maxBuses < 1 {
		maxBuses = 1
	}
	for _, j := range jobs {
		if err := j.Validate(width); err != nil {
			return nil, err
		}
	}
	var best *BusSchedule
	for buses := 1; buses <= maxBuses && buses <= width; buses++ {
		s, err := fixedBusWith(jobs, width, buses)
		if err != nil {
			continue // e.g. widest job does not fit any bus at this split
		}
		if best == nil || s.Makespan < best.Makespan {
			best = s
		}
	}
	if best == nil {
		return nil, fmt.Errorf("tam: no feasible fixed-bus partition for %d wires", width)
	}
	if err := best.Validate(); err != nil {
		return nil, fmt.Errorf("tam: internal error: invalid fixed-bus schedule: %w", err)
	}
	return best, nil
}

func fixedBusWith(jobs []*Job, width, buses int) (*BusSchedule, error) {
	s := &BusSchedule{Buses: make([]Bus, buses)}
	base, extra := width/buses, width%buses
	for i := range s.Buses {
		s.Buses[i].Width = base
		if i < extra {
			s.Buses[i].Width++
		}
	}

	// Bind every serialization group to one unit so it never splits.
	type unit struct {
		jobs     []*Job
		minWidth int   // widest minimum across members
		load     int64 // serial time on a reference width (sorting key)
	}
	units := map[string]*unit{}
	var order []*unit
	for _, j := range jobs {
		key := j.Group
		if key == "" {
			key = "job:" + j.ID
		}
		u := units[key]
		if u == nil {
			u = &unit{}
			units[key] = u
			order = append(order, u)
		}
		u.jobs = append(u.jobs, j)
		if mw := j.Options[0].Width; mw > u.minWidth {
			u.minWidth = mw
		}
		u.load += j.minTime(width)
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].load != order[b].load {
			return order[a].load > order[b].load
		}
		return order[a].jobs[0].ID < order[b].jobs[0].ID
	})

	loads := make([]int64, buses)
	for _, u := range order {
		// Least-loaded bus wide enough for every member; time evaluated
		// at the bus's width.
		bestBus := -1
		var bestFinish int64
		for bi := range s.Buses {
			if s.Buses[bi].Width < u.minWidth {
				continue
			}
			var dur int64
			for _, j := range u.jobs {
				dur += timeFor(j, s.Buses[bi].Width)
			}
			finish := loads[bi] + dur
			if bestBus < 0 || finish < bestFinish {
				bestBus, bestFinish = bi, finish
			}
		}
		if bestBus < 0 {
			return nil, fmt.Errorf("tam: unit needs %d wires, no bus wide enough", u.minWidth)
		}
		for _, j := range u.jobs {
			dur := timeFor(j, s.Buses[bestBus].Width)
			s.Buses[bestBus].Slots = append(s.Buses[bestBus].Slots, BusSlot{
				Job:   j,
				Start: loads[bestBus],
				End:   loads[bestBus] + dur,
			})
			loads[bestBus] += dur
		}
	}
	for _, l := range loads {
		if l > s.Makespan {
			s.Makespan = l
		}
	}
	return s, nil
}

func TestFixedBusBasics(t *testing.T) {
	jobs := []*Job{
		fixedJob("a", 2, 10), fixedJob("b", 2, 10),
		fixedJob("c", 2, 10), fixedJob("d", 2, 10),
	}
	s, err := OptimizeFixedBus(jobs, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Four 2-wide buses run the four jobs in parallel.
	if s.Makespan != 10 {
		t.Errorf("makespan = %d, want 10", s.Makespan)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFixedBusErrors(t *testing.T) {
	if _, err := OptimizeFixedBus([]*Job{fixedJob("a", 1, 10)}, 0, 2); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := OptimizeFixedBus([]*Job{fixedJob("a", 9, 10)}, 8, 2); err == nil {
		t.Error("oversized job accepted")
	}
	if _, err := OptimizeFixedBus([]*Job{{ID: "x"}}, 8, 2); err == nil {
		t.Error("optionless job accepted")
	}
}

func TestFixedBusGroupStaysTogether(t *testing.T) {
	jobs := []*Job{
		groupJob("g1", "w", 1, 10),
		groupJob("g2", "w", 1, 10),
		fixedJob("solo", 1, 5),
	}
	s, err := OptimizeFixedBus(jobs, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The group runs serially on one bus: makespan at least 20.
	if s.Makespan < 20 {
		t.Errorf("makespan = %d, want >= 20", s.Makespan)
	}
}

func TestFixedBusUsesStaircase(t *testing.T) {
	// A flexible job on a wide bus uses the widest option that fits.
	j := &Job{ID: "x", Options: []wrapper.Point{{Width: 1, Time: 100}, {Width: 4, Time: 30}}}
	s, err := OptimizeFixedBus([]*Job{j}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 30 {
		t.Errorf("makespan = %d, want 30 (4-wide option)", s.Makespan)
	}
}

// TestFlexibleBeatsFixedBus reproduces the paper's architectural claim:
// on the mixed digital/analog job profile, rectangle packing (flexible
// width) beats any fixed-bus partition because narrow analog tests waste
// wide buses.
func TestFlexibleBeatsFixedBus(t *testing.T) {
	// Digital staircases plus narrow fixed analog tests, like p93791m.
	var jobs []*Job
	for _, m := range digitalJobsModules(t, 32) {
		jobs = append(jobs, m)
	}
	analogWidths := []int{1, 1, 2, 4, 10, 1, 1, 5}
	analogTimes := []int64{50000, 80000, 26973, 32000, 15754, 136533, 83252, 5400}
	for i := range analogWidths {
		jobs = append(jobs, &Job{
			ID:      "a" + string(rune('0'+i)),
			Options: []wrapper.Point{{Width: analogWidths[i], Time: analogTimes[i]}},
			Group:   "wrap" + string(rune('0'+i%3)),
		})
	}

	flex, err := optimize(jobs, 32)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := OptimizeFixedBus(jobs, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flexible %d vs fixed-bus %d cycles (%.1f%% saved), utilization %.1f%% vs %.1f%%",
		flex.Makespan, fixed.Makespan,
		100*float64(fixed.Makespan-flex.Makespan)/float64(fixed.Makespan),
		100*flex.Utilization(), 100*fixed.Utilization())
	if flex.Makespan > fixed.Makespan {
		t.Errorf("flexible packing (%d) lost to fixed buses (%d)", flex.Makespan, fixed.Makespan)
	}
}

func digitalJobsModules(t testing.TB, maxW int) []*Job {
	t.Helper()
	return digitalJobs(t, maxW)
}

func BenchmarkFixedBusP93791(b *testing.B) {
	jobs := digitalJobs(b, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeFixedBus(jobs, 32, 6); err != nil {
			b.Fatal(err)
		}
	}
}

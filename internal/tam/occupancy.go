package tam

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"mixsoc/internal/wrapper"
)

// fitter answers earliest-fit queries against a schedule's placements
// with a single time sweep per query instead of the per-candidate full
// rescans of the naive formulation. One fitter serves one packing
// goroutine: it owns reusable scratch buffers (start/end-sorted
// placement indices, a per-wire occupancy profile and its busy bitset)
// so steady-state queries allocate nothing. The per-job width options
// (the Pareto staircase, or the full staircase under WithFullStaircase)
// are precomputed once per pack and shared read-only between fitters.
//
// Two speedups over the naive rescan live here:
//
//   - the candidate start times of a query (0, each placed rectangle's
//     end, and each start minus the query duration) are not collected
//     and sorted per width option; they are generated in ascending
//     order by merging the byStart/byEnd index orders, which
//     bestPlacement builds once per job and shares across every width
//     option of that job;
//   - the band search keeps a busy bitset alongside the per-wire
//     counters and walks it a word at a time (see lowestFreeRun), so
//     each candidate check is a few word operations instead of an O(W)
//     counter scan. A bin of at most 64 wires — every width the paper
//     sweeps — is simply a one-word bitset (a dedicated single-word
//     search measured slower than this walk). The counter scan lives
//     on only in the tests, as the reference this sweep is fuzzed
//     against (FuzzFitterReference).
type fitter struct {
	binWidth int
	cfg      config

	// opts maps each job to its candidate width options, precomputed by
	// newOptionTable. Read-only after construction; safe to share.
	opts map[*Job][]wrapper.Point

	// Scratch buffers, reused across queries.
	byStart []int32  // placement indices ordered by Start
	byEnd   []int32  // placement indices ordered by End
	occ     []int32  // occupancy count per wire during the sweep window
	busy    []uint64 // bit w set iff occ[w] != 0
}

// newOptionTable precomputes the width options the packer will try for
// every job, so placement loops never re-derive (and re-allocate) the
// usable staircase.
func newOptionTable(jobs []*Job, binWidth int, cfg config) map[*Job][]wrapper.Point {
	opts := make(map[*Job][]wrapper.Point, len(jobs))
	for _, j := range jobs {
		opts[j] = candidateWidths(j, binWidth, cfg)
	}
	return opts
}

func newFitter(opts map[*Job][]wrapper.Point, binWidth int, cfg config) *fitter {
	return &fitter{
		binWidth: binWidth,
		cfg:      cfg,
		opts:     opts,
		occ:      make([]int32, binWidth),
		busy:     make([]uint64, (binWidth+63)/64),
	}
}

// fork returns a fitter sharing the read-only option table but owning
// fresh scratch buffers, for use by a concurrent packing goroutine.
func (f *fitter) fork() *fitter { return newFitter(f.opts, f.binWidth, f.cfg) }

// prepare (re)builds the start- and end-sorted placement index orders
// the sweep cursors walk. The orders do not depend on the queried
// rectangle, so bestPlacement builds them once and reuses them across
// every width option of a job; they must be rebuilt whenever the
// placements slice changes.
func (f *fitter) prepare(placements []Placement) {
	byStart := f.byStart[:0]
	byEnd := f.byEnd[:0]
	for i := 0; i < len(placements); i++ {
		byStart = append(byStart, int32(i))
		byEnd = append(byEnd, int32(i))
	}
	slices.SortFunc(byStart, func(a, b int32) int {
		return cmp.Compare(placements[a].Start, placements[b].Start)
	})
	slices.SortFunc(byEnd, func(a, b int32) int {
		return cmp.Compare(placements[a].End, placements[b].End)
	})
	f.byStart, f.byEnd = byStart, byEnd
}

// candGen yields the candidate start times of one earliest-fit query in
// strictly ascending order: 0, then the ends of placed rectangles and
// their starts minus the query duration (a window can also become
// feasible right before a rectangle begins) — the same candidate set as
// a full collect-and-sort, produced by merging the already-sorted
// byStart and byEnd index orders with two monotone cursors. This is
// what lets one prepare() serve every width option of a job: the
// duration-dependent candidate stream costs O(n) per option instead of
// an O(n log n) sort.
type candGen struct {
	placements []Placement
	byStart    []int32
	byEnd      []int32
	dur        int64
	ce, cs     int // cursors into byEnd / byStart
}

// next returns the smallest candidate strictly greater than t, or
// math.MaxInt64 when exhausted.
func (g *candGen) next(t int64) int64 {
	for g.ce < len(g.byEnd) && g.placements[g.byEnd[g.ce]].End <= t {
		g.ce++
	}
	for g.cs < len(g.byStart) && g.placements[g.byStart[g.cs]].Start-g.dur <= t {
		g.cs++
	}
	nxt := int64(math.MaxInt64)
	if g.ce < len(g.byEnd) {
		nxt = g.placements[g.byEnd[g.ce]].End
	}
	if g.cs < len(g.byStart) {
		if s := g.placements[g.byStart[g.cs]].Start - g.dur; s < nxt {
			nxt = s
		}
	}
	return nxt
}

// earliestFit returns the earliest start time (and lowest wire band) at
// which a w×dur rectangle for job j fits among the placements: no wire
// conflicts and no time overlap with j's serialization group. The
// caller must have called prepare on the same placements slice.
// Candidates greater than limit are not considered: callers pass the
// largest start that could still matter to them, which prunes the sweep
// without changing any answer they act on.
//
// The candidates are visited in ascending order while two monotone
// cursors maintain the set of placements overlapping the moving window
// [t, t+dur) as a per-wire occupancy profile plus a count of active
// same-group placements. The counters are needed because two placements
// may cover the same wire at different times within one window; the
// busy bitset mirrors which counters are nonzero, so each candidate
// check is O(1) for the group constraint and O(W/64) word steps for the
// band search.
func (f *fitter) earliestFit(j *Job, w int, dur int64, placements []Placement, limit int64) (int64, int, bool) {
	n := len(placements)
	byStart, byEnd := f.byStart, f.byEnd

	occ := f.occ[:f.binWidth]
	clear(occ)
	busy := f.busy
	clear(busy)
	groupActive := 0
	si, ei := 0, 0
	gen := candGen{placements: placements, byStart: byStart, byEnd: byEnd, dur: dur}
	for t := int64(0); t <= limit; {
		// Admit placements entering the window: Start < t+dur. A
		// placement that also already ended (End <= t) is retired by the
		// second cursor in the same step, so the profile stays exact.
		for si < n && placements[byStart[si]].Start < t+dur {
			p := &placements[byStart[si]]
			for wire := p.WireLo; wire < p.WireLo+p.Width; wire++ {
				if occ[wire] == 0 {
					busy[wire>>6] |= 1 << uint(wire&63)
				}
				occ[wire]++
			}
			if j.Group != "" && p.Job.Group == j.Group {
				groupActive++
			}
			si++
		}
		for ei < n && placements[byEnd[ei]].End <= t {
			p := &placements[byEnd[ei]]
			for wire := p.WireLo; wire < p.WireLo+p.Width; wire++ {
				occ[wire]--
				if occ[wire] == 0 {
					busy[wire>>6] &^= 1 << uint(wire&63)
				}
			}
			if j.Group != "" && p.Job.Group == j.Group {
				groupActive--
			}
			ei++
		}
		if groupActive == 0 {
			if lo := lowestFreeRun(busy, f.binWidth, w); lo >= 0 {
				return t, lo, true
			}
		}
		nt := gen.next(t)
		if nt == math.MaxInt64 {
			break
		}
		t = nt
	}
	return 0, 0, false
}

// lowestFreeRun returns the lowest wire index starting a run of w free
// (zero) bits in the busy bitset, or -1 if no such band exists below
// binWidth. Runs may span word boundaries; fully free and fully busy
// words are consumed in one step, and mixed words advance one free/busy
// transition at a time via trailing-zero counts, matching the counter
// scan's first-run answer exactly.
func lowestFreeRun(busy []uint64, binWidth, w int) int {
	run := 0 // free run ending just before the current position
	for wi := range busy {
		base := wi << 6
		valid := binWidth - base
		if valid > 64 {
			valid = 64
		}
		free := ^busy[wi]
		if valid < 64 {
			free &= 1<<uint(valid) - 1
		}
		if free == 0 {
			run = 0
			continue
		}
		if valid == 64 && free == ^uint64(0) {
			if run+64 >= w {
				return base - run
			}
			run += 64
			continue
		}
		for off := 0; off < valid; {
			x := free >> uint(off)
			if x&1 == 0 {
				z := bits.TrailingZeros64(x)
				if z > valid-off {
					z = valid - off
				}
				off += z
				run = 0
				continue
			}
			ones := bits.TrailingZeros64(^x)
			if ones > valid-off {
				ones = valid - off
			}
			if run+ones >= w {
				return base + off - run
			}
			run += ones
			off += ones
		}
	}
	return -1
}

// bestPlacement finds the placement of j minimizing (end, width, start,
// wire) against the current placements. One pair of sorted cursor
// orders serves every width option of the job; options whose bare
// duration already exceeds the incumbent end are skipped, and each
// option's sweep stops at the last start that could still tie the
// incumbent — both prunes are exact under the (end, width, start, wire)
// order, so the chosen placement is identical to an unpruned search.
func (f *fitter) bestPlacement(j *Job, placements []Placement) (Placement, bool) {
	var best Placement
	found := false
	better := func(p Placement) bool {
		if !found {
			return true
		}
		if p.End != best.End {
			return p.End < best.End
		}
		if p.Width != best.Width {
			return p.Width < best.Width
		}
		if p.Start != best.Start {
			return p.Start < best.Start
		}
		return p.WireLo < best.WireLo
	}

	f.prepare(placements)
	for _, opt := range f.opts[j] {
		limit := int64(math.MaxInt64)
		if found {
			if opt.Time > best.End {
				continue // even a start at 0 ends after the incumbent
			}
			limit = best.End - opt.Time
		}
		t, wireLo, ok := f.earliestFit(j, opt.Width, opt.Time, placements, limit)
		if !ok {
			continue
		}
		p := Placement{Job: j, Width: opt.Width, Start: t, End: t + opt.Time, WireLo: wireLo}
		if better(p) {
			best = p
			found = true
		}
	}
	return best, found
}

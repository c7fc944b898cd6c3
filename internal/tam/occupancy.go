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
// placement indices and their keys, the bit-sliced occupancy counters
// and the busy bitset), sized from the job count when the fitter is
// built, so steady-state queries allocate nothing. The per-job width
// options (the Pareto staircase, or the full staircase under
// WithFullStaircase) are precomputed once per pack and shared
// read-only between fitters.
//
// Three speedups over the naive rescan live here:
//
//   - the candidate start times of a query (0, each placed rectangle's
//     end, and each start minus the query duration) are not collected
//     and sorted per width option; they are generated in ascending
//     order by merging the byStart/byEnd orders, whose keys prepare
//     copies into flat startKey/endKey arrays so the cursors read
//     sequential int64s rather than Placement structs; bestPlacement
//     prepares once per job and shares the orders across every width
//     option of that job;
//   - the occupancy of the moving window is kept as vertical
//     (bit-sliced) counters: bit w of slice k is bit k of wire w's
//     count, so admitting or retiring a placement is a carry or borrow
//     ripple over its band's word masks — a few word operations, not a
//     loop over its wires;
//   - the band search ORs the slices into a busy bitset and walks it a
//     word at a time (see lowestFreeRun), so each candidate check is a
//     few word operations instead of an O(W) counter scan. A bin of at
//     most 64 wires — every width the paper sweeps — is simply a
//     one-word bitset. The per-wire counter scan lives on only in the
//     tests, as the reference this sweep is fuzzed against
//     (FuzzFitterReference).
type fitter struct {
	binWidth int
	cfg      config

	// opts maps each job to its candidate width options, precomputed by
	// newOptionTable. Read-only after construction; safe to share.
	opts map[*Job][]wrapper.Point

	// Scratch buffers, reused across queries.
	byStart  []int32  // placement indices ordered by Start
	byEnd    []int32  // placement indices ordered by End
	startKey []int64  // startKey[i] = placements[byStart[i]].Start
	endKey   []int64  // endKey[i] = placements[byEnd[i]].End
	cnt      []uint64 // bit-sliced counters: word wi, slice k at cnt[wi*depth+k]
	busy     []uint64 // bit w set iff wire w's count is nonzero
}

// newOptionTable precomputes the width options the packer will try for
// every job, so placement loops never re-derive the usable staircase.
func newOptionTable(jobs []*Job, binWidth int, cfg config) map[*Job][]wrapper.Point {
	opts := make(map[*Job][]wrapper.Point, len(jobs))
	for _, j := range jobs {
		opts[j] = candidateWidths(j, binWidth, cfg)
	}
	return opts
}

// newFitter builds a fitter whose scratch is sized for a schedule of
// every job in the option table, so prepare and earliestFit never grow
// a buffer while a pack runs.
func newFitter(opts map[*Job][]wrapper.Point, binWidth int, cfg config) *fitter {
	n := len(opts)
	words := (binWidth + 63) / 64
	return &fitter{
		binWidth: binWidth,
		cfg:      cfg,
		opts:     opts,
		byStart:  make([]int32, 0, n),
		byEnd:    make([]int32, 0, n),
		startKey: make([]int64, 0, n),
		endKey:   make([]int64, 0, n),
		cnt:      make([]uint64, words*bits.Len(uint(n))),
		busy:     make([]uint64, words),
	}
}

// fork returns a fitter sharing the read-only option table but owning
// fresh scratch buffers, for use by a concurrent packing goroutine.
func (f *fitter) fork() *fitter { return newFitter(f.opts, f.binWidth, f.cfg) }

// prepare (re)builds the start- and end-sorted placement index orders
// the sweep cursors walk, and their flat key arrays. The orders do not
// depend on the queried rectangle, so bestPlacement builds them once
// and reuses them across every width option of a job; they must be
// rebuilt whenever the placements slice changes.
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
	startKey := f.startKey[:0]
	endKey := f.endKey[:0]
	for i := range byStart {
		startKey = append(startKey, placements[byStart[i]].Start)
		endKey = append(endKey, placements[byEnd[i]].End)
	}
	f.byStart, f.byEnd = byStart, byEnd
	f.startKey, f.endKey = startKey, endKey
}

// candGen yields the candidate start times of one earliest-fit query in
// strictly ascending order: 0, then the ends of placed rectangles and
// their starts minus the query duration (a window can also become
// feasible right before a rectangle begins) — the same candidate set as
// a full collect-and-sort, produced by merging the already-sorted
// startKey and endKey arrays with two monotone cursors. This is what
// lets one prepare() serve every width option of a job: the
// duration-dependent candidate stream costs O(n) per option instead of
// an O(n log n) sort.
type candGen struct {
	startKey []int64
	endKey   []int64
	dur      int64
	ce, cs   int // cursors into endKey / startKey
}

// next returns the smallest candidate strictly greater than t, or
// math.MaxInt64 when exhausted.
func (g *candGen) next(t int64) int64 {
	for g.ce < len(g.endKey) && g.endKey[g.ce] <= t {
		g.ce++
	}
	for g.cs < len(g.startKey) && g.startKey[g.cs]-g.dur <= t {
		g.cs++
	}
	nxt := int64(math.MaxInt64)
	if g.ce < len(g.endKey) {
		nxt = g.endKey[g.ce]
	}
	if g.cs < len(g.startKey) {
		if s := g.startKey[g.cs] - g.dur; s < nxt {
			nxt = s
		}
	}
	return nxt
}

// bandMask returns the bits of bitset word wi that lie inside the wire
// band [lo, hi).
func bandMask(wi, lo, hi int) uint64 {
	m := ^uint64(0)
	if wi == lo>>6 {
		m <<= uint(lo & 63)
	}
	if wi == (hi-1)>>6 {
		m &= ^uint64(0) >> uint(63-((hi-1)&63))
	}
	return m
}

// earliestFit returns the earliest start time (and lowest wire band) at
// which a w×dur rectangle for job j fits among the placements: no wire
// conflicts and no time overlap with j's serialization group. The
// caller must have called prepare on the same placements slice, which
// holds placements of the option table's jobs (so no more than the
// counters were sized for). Candidates greater than limit are not
// considered: callers pass the largest start that could still matter to
// them, which prunes the sweep without changing any answer they act on.
//
// The candidates are visited in ascending order while two monotone
// cursors maintain the set of placements overlapping the moving window
// [t, t+dur) as per-wire occupancy counts plus a count of active
// same-group placements. Counts are needed because two placements may
// cover the same wire at different times within one window. They are
// stored bit-sliced — slice k holds bit k of every wire's count, and
// bits.Len(n) slices hold any count up to n — so admitting a placement
// adds its band mask with a carry ripple up the slices of each word it
// covers, retiring one subtracts with a borrow ripple, and either stops
// at the first slice where the carry or borrow is zero. A wire is busy
// iff any slice has its bit set, so the OR of the slices is the busy
// bitset the band search walks; it is rebuilt only when the window
// changed since the last candidate.
func (f *fitter) earliestFit(j *Job, w int, dur int64, placements []Placement, limit int64) (int64, int, bool) {
	n := len(placements)
	byStart, byEnd := f.byStart, f.byEnd
	startKey, endKey := f.startKey, f.endKey
	busy := f.busy
	depth := bits.Len(uint(n)) // counter slices: enough for a count of n
	cnt := f.cnt[:len(busy)*depth]
	clear(cnt)
	dirty := true // busy is stale until first rebuilt from cnt
	groupActive := 0
	si, ei := 0, 0
	gen := candGen{startKey: startKey, endKey: endKey, dur: dur}
	for t := int64(0); t <= limit; {
		// Admit placements entering the window: Start < t+dur. A
		// placement that also already ended (End <= t) is retired by the
		// second cursor in the same step, so the counts stay exact.
		for si < n && startKey[si] < t+dur {
			p := &placements[byStart[si]]
			lo, hi := p.WireLo, p.WireLo+p.Width
			for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
				c := cnt[wi*depth : (wi+1)*depth]
				for k, carry := 0, bandMask(wi, lo, hi); carry != 0; k++ {
					old := c[k]
					c[k] = old ^ carry
					carry &= old
				}
			}
			if j.Group != "" && p.Job.Group == j.Group {
				groupActive++
			}
			si++
			dirty = true
		}
		for ei < n && endKey[ei] <= t {
			p := &placements[byEnd[ei]]
			lo, hi := p.WireLo, p.WireLo+p.Width
			for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
				c := cnt[wi*depth : (wi+1)*depth]
				for k, borrow := 0, bandMask(wi, lo, hi); borrow != 0; k++ {
					old := c[k]
					c[k] = old ^ borrow
					borrow &^= old
				}
			}
			if j.Group != "" && p.Job.Group == j.Group {
				groupActive--
			}
			ei++
			dirty = true
		}
		if groupActive == 0 {
			if dirty {
				for wi := range busy {
					var b uint64
					for _, s := range cnt[wi*depth : (wi+1)*depth] {
						b |= s
					}
					busy[wi] = b
				}
				dirty = false
			}
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

package tam

import (
	"cmp"
	"math/bits"
	"slices"

	"mixsoc/internal/wrapper"
)

// fitter answers earliest-fit queries against a schedule's placements
// with a single time sweep per query instead of the per-candidate full
// rescans of the naive formulation. One fitter serves one packing
// goroutine and mirrors that goroutine's schedule on a board: the
// placements' start and end edges, each array kept sorted by its time
// key as place and unplace edit the schedule, so a query never sorts.
// All scratch (the board, the bit-sliced occupancy counters and the
// busy bitset) is sized from the job count when the fitter is built, so
// steady-state placements and queries allocate nothing. The per-job
// width options (the Pareto staircase, or the full staircase under
// WithFullStaircase) are precomputed once per pack and shared read-only
// between fitters.
//
// Three speedups over the naive rescan live here:
//
//   - a query visits only release instants: 0 and the placements' ends,
//     in the board's end order. A window [t, t+d) overlaps placement p
//     iff p.Start < t+d and t < p.End. Between two consecutive ends the
//     second condition is fixed while the first only gains placements
//     as t rises, so the overlapping set only grows; a window that fits
//     anywhere in that stretch also fits at its left end. The earliest
//     fit is therefore always at 0 or at some placement's end, and no
//     start-minus-duration instant ever needs a look;
//   - the occupancy of the moving window is kept as vertical
//     (bit-sliced) counters: bit w of slice k is bit k of wire w's
//     count, so admitting or retiring a placement is a carry or borrow
//     ripple over its band's word masks — a few word operations, not a
//     loop over its wires;
//   - the band search ORs the slices into a busy bitset and walks it a
//     word at a time (see lowestFreeRun), so each candidate check is a
//     few word operations instead of an O(W) counter scan. A bin of at
//     most 64 wires — every width the paper sweeps — is simply a
//     one-word bitset. The per-wire counter scan over the full
//     candidate set (0, ends, and starts minus the duration) lives on
//     only in the tests, as the reference this sweep is fuzzed against
//     (FuzzFitterReference, FuzzFitterBoard).
type fitter struct {
	binWidth int
	cfg      config

	// opts holds each job's candidate width options and group ID.
	// Read-only after construction; safe to share.
	opts optionTable

	// The board: one edge per placement in each array, starts sorted by
	// Start and ends by End.
	starts []edge
	ends   []edge
	// Query scratch.
	cnt  []uint64 // bit-sliced counters: word wi, slice k at cnt[wi*depth+k]
	busy []uint64 // bit w set iff wire w's count is nonzero
}

// optionTable is the per-job data every query reads: the job's entry in
// jobs is at index idx[job].
type optionTable struct {
	idx  map[*Job]int32
	jobs []jobOpts
}

// jobOpts is one job's entry in the option table.
type jobOpts struct {
	pts []wrapper.Point
	gid int32 // serialization group ID; 0 means no group
}

// of returns j's entry; j must be one of the table's jobs.
func (t optionTable) of(j *Job) *jobOpts { return &t.jobs[t.idx[j]] }

// edge is one placement's start or end on the board: its time key and
// wire band, and its job's group ID. A (key, lo) pair identifies a
// placement within either array, because two placements sharing a
// start (or an end) and a first wire would overlap.
type edge struct {
	key   int64
	lo, w uint16
	gid   int32
}

// maxBinWidth is the widest bin an edge's uint16 wire band can address.
const maxBinWidth = 1<<16 - 1

// newOptionTable precomputes the width options the packer will try for
// every job, so placement loops never re-derive the usable staircase,
// and numbers the serialization groups: a grouped job's ID is one past
// the index of the first job in its group.
func newOptionTable(jobs []*Job, binWidth int, cfg config) optionTable {
	t := optionTable{idx: make(map[*Job]int32, len(jobs)), jobs: make([]jobOpts, len(jobs))}
	for i, j := range jobs {
		t.idx[j] = int32(i)
		t.jobs[i].pts = candidateWidths(j, binWidth, cfg)
		for k := 0; j.Group != "" && t.jobs[i].gid == 0; k++ {
			if jobs[k].Group == j.Group {
				t.jobs[i].gid = int32(k + 1)
			}
		}
	}
	return t
}

// newFitter builds a fitter whose scratch is sized for a schedule of
// every job in the option table, so the board and earliestFit never
// grow a buffer while a pack runs.
func newFitter(opts optionTable, binWidth int, cfg config) *fitter {
	n := len(opts.jobs)
	words := (binWidth + 63) / 64
	return &fitter{
		binWidth: binWidth,
		cfg:      cfg,
		opts:     opts,
		starts:   make([]edge, 0, n),
		ends:     make([]edge, 0, n),
		cnt:      make([]uint64, words*bits.Len(uint(n))),
		busy:     make([]uint64, words),
	}
}

// fork returns a fitter sharing the read-only option table but owning
// a fresh board and scratch, for use by a concurrent packing goroutine.
func (f *fitter) fork() *fitter { return newFitter(f.opts, f.binWidth, f.cfg) }

// edges returns p's start and end edges.
func (f *fitter) edges(p *Placement) (start, end edge) {
	start = edge{key: p.Start, lo: uint16(p.WireLo), w: uint16(p.Width), gid: f.opts.of(p.Job).gid}
	end = start
	end.key = p.End
	return start, end
}

// prepare loads the board from a whole schedule with one sort per
// array: the polish's starting point, whose schedule another fitter
// (or none) built.
func (f *fitter) prepare(placements []Placement) {
	f.starts, f.ends = f.starts[:0], f.ends[:0]
	for i := range placements {
		s, e := f.edges(&placements[i])
		f.starts = append(f.starts, s)
		f.ends = append(f.ends, e)
	}
	byKey := func(a, b edge) int { return cmp.Compare(a.key, b.key) }
	slices.SortFunc(f.starts, byKey)
	slices.SortFunc(f.ends, byKey)
}

// place appends p to the schedule, raises its makespan to cover p, and
// inserts p's edges into the board.
func (f *fitter) place(s *Schedule, p Placement) {
	s.Placements = append(s.Placements, p)
	s.Makespan = max(s.Makespan, p.End)
	st, en := f.edges(&p)
	f.starts = slices.Insert(f.starts, firstEdge(f.starts, st.key), st)
	f.ends = slices.Insert(f.ends, firstEdge(f.ends, en.key), en)
}

// unplace swap-removes placement i from the schedule (the last
// placement takes its slot) and deletes its edges from the board. The
// makespan is left as is; callers that shrink it recompute it.
func (f *fitter) unplace(s *Schedule, i int) Placement {
	p := s.Placements[i]
	last := len(s.Placements) - 1
	s.Placements[i] = s.Placements[last]
	s.Placements = s.Placements[:last]
	f.starts = deleteEdge(f.starts, p.Start, p.WireLo)
	f.ends = deleteEdge(f.ends, p.End, p.WireLo)
	return p
}

// firstEdge returns the index of the first edge whose key is ≥ key.
func firstEdge(es []edge, key int64) int {
	i, _ := slices.BinarySearchFunc(es, key, func(e edge, k int64) int { return cmp.Compare(e.key, k) })
	return i
}

// deleteEdge removes the edge identified by (key, lo); it must exist.
func deleteEdge(es []edge, key int64, lo int) []edge {
	i := firstEdge(es, key)
	for int(es[i].lo) != lo {
		i++
	}
	return slices.Delete(es, i, i+1)
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
// which a w×dur rectangle of serialization group gid (0 for none) fits
// on the board: no wire conflicts and no time overlap with the group.
// Starts greater than limit are not considered: callers pass the
// largest start that could still matter to them, which prunes the sweep
// without changing any answer they act on.
//
// The release instants (0, then each placement's end; see fitter) are
// visited in ascending order while two monotone cursors maintain the
// set of placements overlapping the moving window [t, t+dur) as
// per-wire occupancy counts plus a count of active same-group
// placements. Counts are needed because two placements may cover the
// same wire at different times within one window. They are stored
// bit-sliced — slice k holds bit k of every wire's count, and
// bits.Len(n) slices hold any count up to n — so admitting a placement
// adds its band mask with a carry ripple up the slices of each word it
// covers, retiring one subtracts with a borrow ripple, and either stops
// at the first slice where the carry or borrow is zero. A wire is busy
// iff any slice has its bit set, so the OR of the slices is the busy
// bitset the band search walks. Every step past 0 retires at least the
// placement whose end it stands on, so the bitset is rebuilt at every
// instant the group constraint leaves open.
func (f *fitter) earliestFit(gid int32, w int, dur, limit int64) (int64, int, bool) {
	starts, ends := f.starts, f.ends
	n := len(starts)
	busy := f.busy
	depth := bits.Len(uint(n)) // counter slices: enough for a count of n
	cnt := f.cnt[:len(busy)*depth]
	clear(cnt)
	groupActive := 0
	si, ei := 0, 0
	for t := int64(0); t <= limit; t = ends[ei].key {
		// Admit placements entering the window: Start < t+dur. A
		// placement that also already ended (End <= t) is retired by the
		// second cursor in the same step, so the counts stay exact.
		for si < n && starts[si].key < t+dur {
			e := &starts[si]
			lo, hi := int(e.lo), int(e.lo)+int(e.w)
			for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
				c := cnt[wi*depth : (wi+1)*depth]
				for k, carry := 0, bandMask(wi, lo, hi); carry != 0; k++ {
					old := c[k]
					c[k] = old ^ carry
					carry &= old
				}
			}
			if gid != 0 && e.gid == gid {
				groupActive++
			}
			si++
		}
		for ei < n && ends[ei].key <= t {
			e := &ends[ei]
			lo, hi := int(e.lo), int(e.lo)+int(e.w)
			for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
				c := cnt[wi*depth : (wi+1)*depth]
				for k, borrow := 0, bandMask(wi, lo, hi); borrow != 0; k++ {
					old := c[k]
					c[k] = old ^ borrow
					borrow &^= old
				}
			}
			if gid != 0 && e.gid == gid {
				groupActive--
			}
			ei++
		}
		if groupActive == 0 {
			for wi := range busy {
				var b uint64
				for _, s := range cnt[wi*depth : (wi+1)*depth] {
					b |= s
				}
				busy[wi] = b
			}
			if lo := lowestFreeRun(busy, f.binWidth, w); lo >= 0 {
				return t, lo, true
			}
		}
		if ei == n {
			break // every placement has ended: no later instant differs
		}
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
// wire) on the board among those ending no later than maxEnd, and
// reports false when there is none. The bound seeds the incumbent:
// options whose bare duration already exceeds it are skipped, and each
// option's sweep stops at the last start that could still tie it. Both
// prunes are exact under the (end, width, start, wire) order, so the
// answer is the unbounded minimum whenever that ends by maxEnd; the
// polish loops pass the end a re-placement must beat, since they discard
// any later answer.
func (f *fitter) bestPlacement(j *Job, maxEnd int64) (Placement, bool) {
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

	jo := f.opts.of(j)
	for _, opt := range jo.pts {
		if opt.Time > maxEnd {
			continue // even a start at 0 ends after the bound
		}
		t, wireLo, ok := f.earliestFit(jo.gid, opt.Width, opt.Time, maxEnd-opt.Time)
		if !ok {
			continue
		}
		p := Placement{Job: j, Width: opt.Width, Start: t, End: t + opt.Time, WireLo: wireLo}
		if better(p) {
			best = p
			found = true
			maxEnd = p.End
		}
	}
	return best, found
}

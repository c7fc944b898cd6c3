package tam

import (
	"cmp"
	"math/bits"
	"slices"

	"mixsoc/internal/wrapper"
)

// fitter answers placement queries against a schedule's placements
// with one time sweep per query, shared by all of the job's width
// options, instead of the per-candidate full rescans of the naive
// formulation. One fitter serves one packing goroutine and mirrors that
// goroutine's schedule on a board: the placements' start and end edges,
// each array kept sorted by its time key as place and unplace edit the
// schedule, so a query never sorts. All scratch (the board, two wire
// bitsets and the polish loops' flags) is sized when the fitter is
// loaded, so steady-state placements and queries allocate nothing.
// Fitters live in a pooled workspace (see workspace), so a pack reuses
// the buffers of earlier packs instead of allocating its own. The
// per-job width options (the Pareto staircase, or the full staircase
// under WithFullStaircase) are precomputed once per pack and shared
// read-only between fitters.
//
// Four speedups over the naive rescan live here:
//
//   - a query visits only release instants: 0 and the placements' ends,
//     in the board's end order. A window [t, t+d) overlaps placement p
//     iff p.Start < t+d and t < p.End. Between two consecutive ends the
//     second condition is fixed while the first only gains placements
//     as t rises, so the overlapping set only grows; a window that fits
//     anywhere in that stretch also fits at its left end. The earliest
//     fit is therefore always at 0 or at some placement's end, and no
//     start-minus-duration instant ever needs a look;
//   - every width option is tried at each instant of the one sweep, so
//     the instants and the board's edges are walked once per query, not
//     once per option. The window [t, t+d) is occupied by the wires held
//     at t — one bitset, kept by XOR as starts and ends pass — plus the
//     bands of the starts ahead in (t, t+d); walking the options
//     shortest-first only ever extends that set of starts ahead;
//   - an exact room filter: no option wider than the longest free run
//     of the held wires (longestFreeRun) is checked, and an instant
//     where none fits builds no window at all;
//   - the band search walks the occupancy bitset a word at a time (see
//     lowestFreeRun), so each candidate check is a few word operations
//     instead of an O(W) counter scan. A bin of at most 64 wires — every
//     width the paper sweeps — is simply a one-word bitset. The per-wire
//     counter scan over the full candidate set (0, ends, and starts
//     minus the duration), one option at a time, lives on only in the
//     tests, as the reference this sweep is fuzzed against
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
	held []uint64 // bit w set iff a placement holds wire w at the instant
	busy []uint64 // held plus the bands of the starts ahead in the window
	// The polish loops' per-placement flags (see markMoved).
	flags []bool
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

// load rebuilds the table over jobs, reusing its map and entries: it
// precomputes the width options the packer will try for every job, so
// placement loops never re-derive the usable staircase, and numbers the
// serialization groups: a grouped job's ID is one past the index of the
// first job in its group. The map must be empty and non-nil.
func (t *optionTable) load(jobs []*Job, binWidth int, cfg config) {
	t.jobs = grow(t.jobs, len(jobs))
	for i, j := range jobs {
		t.idx[j] = int32(i)
		t.jobs[i] = jobOpts{pts: candidateWidths(j, binWidth, cfg)}
		for k := 0; j.Group != "" && t.jobs[i].gid == 0; k++ {
			if jobs[k].Group == j.Group {
				t.jobs[i].gid = int32(k + 1)
			}
		}
	}
}

// load sizes f for a schedule of every job in the option table, reusing
// its buffers, so the board and the sweep never grow a buffer while a
// pack runs.
func (f *fitter) load(opts optionTable, binWidth int, cfg config) {
	n := len(opts.jobs)
	f.binWidth, f.cfg, f.opts = binWidth, cfg, opts
	f.starts = slices.Grow(f.starts[:0], n)
	f.ends = slices.Grow(f.ends[:0], n)
	f.flags = grow(f.flags, n)
	words := (binWidth + 63) / 64
	f.held = grow(f.held, words)
	f.busy = grow(f.busy, words)
}

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

// longestFreeRun returns the length of the longest run of free (zero)
// bits below binWidth in the bitset bs, walking each word one free/busy
// transition at a time as lowestFreeRun does; runs may span words.
func longestFreeRun(bs []uint64, binWidth int) int {
	longest, run := 0, 0 // run: free run ending just before off
	for wi := range bs {
		valid := min(binWidth-wi<<6, 64)
		free := ^bs[wi] & (^uint64(0) >> uint(64-valid))
		for off := 0; off < valid; {
			x := free >> uint(off)
			if z := bits.TrailingZeros64(x); z > 0 { // busy bits; 64 if the rest is busy
				run, off = 0, off+z
				continue
			}
			ones := bits.TrailingZeros64(^x) // bits past valid are busy
			run, off = run+ones, off+ones
			longest = max(longest, run)
		}
	}
	return longest
}

// xorBand flips e's wire band in the bitset bs.
func xorBand(bs []uint64, e *edge) {
	lo, hi := int(e.lo), int(e.lo)+int(e.w)
	for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
		bs[wi] ^= bandMask(wi, lo, hi)
	}
}

// orBand sets e's wire band in the bitset bs.
func orBand(bs []uint64, e *edge) {
	lo, hi := int(e.lo), int(e.lo)+int(e.w)
	for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
		bs[wi] |= bandMask(wi, lo, hi)
	}
}

// bestPlacement finds the placement of j minimizing (end, width, start,
// wire) on the board among those ending no later than maxEnd, and
// reports false when there is none. The polish loops pass the end a
// re-placement must beat, since they discard any later answer.
func (f *fitter) bestPlacement(j *Job, maxEnd int64) (Placement, bool) {
	jo := f.opts.of(j)
	p, ok := f.sweep(jo.pts, jo.gid, maxEnd)
	if ok {
		p.Job = j
	}
	return p, ok
}

// sweep returns the placement, without its job, minimizing (end, width,
// start, wire) among those of a rectangle of serialization group gid (0
// for none) with any of the width options pts that end no later than
// maxEnd and fit on the board: no wire conflicts and no time overlap
// with the group. pts must be non-empty and ordered by width with
// non-increasing times, as candidateWidths lists them for a validated
// job.
//
// One pass visits the release instants (0, then each placement's end;
// see fitter) in ascending order. Two monotone cursors keep held, the
// wires of the placements with Start <= t < End, by XOR: admitting
// every start <= t and retiring every end <= t cancels out each
// placement that already ended and leaves the held ones, which share no
// wire on a valid board, so XOR equals OR whatever order a step's
// admits and retires run in. A count of held same-group placements is
// kept the same way. At each instant the options are walked
// shortest-first from a copy of held, ORing in the bands of the starts
// ahead, from the first start > t up to t+d, so each window's occupancy
// extends the last one's. A same-group start inside a window blocks
// that option and every longer one. busy only adds to held, so an
// option wider than room, held's longest free run, cannot fit: the walk
// starts at the widest option no wider than room (the skipped windows
// nest inside its window, so it meets any same-group start or bound
// they would have met) and skips the instant when there is none.
//
// The bound is the incumbent's end: maxEnd falls to each better
// answer's end. An option that cannot end by it stops the walk at this
// instant, since every later option in the walk lasts at least as long,
// and the sweep stops once the next instant leaves even the shortest
// option no room. Both prunes drop only answers that end later than
// one in hand, so the result is the unbounded minimum whenever that
// ends by maxEnd.
func (f *fitter) sweep(pts []wrapper.Point, gid int32, maxEnd int64) (Placement, bool) {
	var best Placement
	found := false
	starts, ends := f.starts, f.ends
	n := len(starts)
	held, busy := f.held, f.busy
	clear(held)
	shortest := pts[len(pts)-1].Time
	groupHeld := 0
	si, ei := 0, 0
	for t := int64(0); t <= maxEnd-shortest; t = ends[ei].key {
		for si < n && starts[si].key <= t {
			xorBand(held, &starts[si])
			if gid != 0 && starts[si].gid == gid {
				groupHeld++
			}
			si++
		}
		for ei < n && ends[ei].key <= t {
			xorBand(held, &ends[ei])
			if gid != 0 && ends[ei].gid == gid {
				groupHeld--
			}
			ei++
		}
		if groupHeld == 0 {
			room := longestFreeRun(held, f.binWidth)
			k := len(pts) - 1
			for k >= 0 && pts[k].Width > room {
				k--
			}
			if k >= 0 {
				copy(busy, held)
			}
			ahead := si // the first start > t
		walk:
			for ; k >= 0; k-- {
				opt := pts[k]
				if t > maxEnd-opt.Time {
					break
				}
				for ; ahead < n && starts[ahead].key < t+opt.Time; ahead++ {
					if gid != 0 && starts[ahead].gid == gid {
						break walk
					}
					orBand(busy, &starts[ahead])
				}
				lo := lowestFreeRun(busy, f.binWidth, opt.Width)
				if lo < 0 {
					continue
				}
				p := Placement{Width: opt.Width, Start: t, End: t + opt.Time, WireLo: lo}
				// p ends by the incumbent's end, and no two answers share
				// an end and a width (an option's end fixes its start), so
				// on an equal end the narrower width wins.
				if !found || p.End < best.End || p.Width < best.Width {
					best, found, maxEnd = p, true, p.End
				}
			}
		}
		if ei == n {
			break // every placement has ended: no later instant differs
		}
	}
	return best, found
}

package tam

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"mixsoc/internal/wrapper"
)

// Option configures a packing backend (Optimize, PackRectangle).
type Option func(*config)

type config struct {
	improvePasses int
	paretoOnly    bool
	warm          []*Schedule
	ctx           context.Context
	// done is ctx.Done(), taken once per pack; nil means never cancelled.
	done <-chan struct{}
}

// ctxErr reports the config's context error, treating a nil context as
// never cancelled. It is the single cancellation probe of the packing
// loops. It polls the Done channel pack captured rather than calling
// ctx.Err, which takes the context's lock on every placement of every
// ordering goroutine.
func (c *config) ctxErr() error {
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
		return nil
	}
}

// WithFullStaircase makes the packer consider every width from the
// narrowest option up to the bin width, synthesizing flat staircase
// steps, instead of only the strictly-improving Pareto points. It exists
// to measure the value of Pareto pruning; it never improves the result.
func WithFullStaircase() Option {
	return func(c *config) { c.paretoOnly = false }
}

// WithWarmStart seeds the packing with a schedule of the same job set
// from an adjacent bin. A seed from a narrower (or equal-width) bin is
// feasible verbatim in this bin, so the packer adopts its placements
// — matching jobs by ID and re-deriving durations from the current
// staircases — and goes straight to the backend's polish, which
// re-places jobs against the wider bin, instead of packing cold. A seed
// from a wider bin cannot be adopted verbatim (its placements may
// overflow the narrower bin); instead the jobs are re-placed
// earliest-fit in the seed's placement order, a single guided packing
// that inherits the seed's structure at a fraction of the cold cost. A
// seed that does not match the job set (different IDs, or widths
// outside the staircase) is ignored, so a stale seed can never corrupt
// a result; with no usable seed the packer falls back to the cold path.
//
// The option may be given several times — e.g. the nearest completed
// width on either side of a sweep — in which case every seed is adopted
// (or adapted) and the one with the smallest pre-polish makespan wins,
// earlier options winning ties.
//
// Warm-started packing follows a different search trajectory than cold
// packing: makespans stay close (the polish loops are shared and
// monotone) but are not guaranteed identical. Sweep drivers that must
// reproduce cold results exactly — the paper-table reproductions — must
// not use it; see core.SweepOptions.WarmStart for the opt-in chaining.
func WithWarmStart(seed *Schedule) Option {
	return func(c *config) { c.warm = append(c.warm, seed) }
}

// WithContext makes the packing cancellable: the placement loops poll
// ctx between jobs and the packer returns ctx.Err() once it fires. A
// nil ctx (and the zero option value) means never cancelled.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// instance is one validated pack request plus the per-job quantities
// the backends' cold orderings are built from. The per-job slices are
// indexed like jobs, so the ordering comparators read them without a
// map lookup or a staircase walk inside sort.
type instance struct {
	jobs  []*Job
	width int
	// target is the packTarget makespan estimate; a job's preferred
	// width is its narrowest option meeting it (preferredWidth).
	target int64
	// prefTime is each job's time at its preferred width.
	prefTime []int64
	// chain is each job's chain weight: its serialization group's
	// serial time at the widest options, or its own preferred time when
	// it has no group. Groups behave like one long chain: one useful
	// weight for a job is its whole group's serial time rather than its
	// own (often short) time, or the chain ends up in a tail behind a
	// tightly packed bin.
	chain []int64
}

// load fills the instance for a pack of the jobs at the given width,
// reusing its per-job slices. groupTotal is scratch and must be empty.
func (in *instance) load(jobs []*Job, width int, groupTotal map[string]int64) {
	in.jobs, in.width, in.target = jobs, width, packTarget(jobs, width)
	in.prefTime = grow(in.prefTime, len(jobs))
	in.chain = grow(in.chain, len(jobs))
	for i, j := range jobs {
		if j.Group != "" {
			groupTotal[j.Group] += j.minTime(width)
		}
		in.prefTime[i] = timeFor(j, preferredWidth(j, width, in.target))
	}
	for i, j := range jobs {
		in.chain[i] = in.prefTime[i]
		if j.Group != "" {
			in.chain[i] = groupTotal[j.Group]
		}
	}
}

// orderBy returns the jobs sorted by descending key (indexed like
// in.jobs), ties broken by descending preferred time and then ascending
// ID — a total order, so every backend's ordering is deterministic. The
// order is built in l's buffers.
func orderBy[K cmp.Ordered](in *instance, key []K, l *lane) []*Job {
	l.idx = grow(l.idx, len(in.jobs))
	idx := l.idx
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp.Compare(key[b], key[a]); c != 0 {
			return c
		}
		if c := cmp.Compare(in.prefTime[b], in.prefTime[a]); c != 0 {
			return c
		}
		return cmp.Compare(in.jobs[a].ID, in.jobs[b].ID)
	})
	l.order = grow(l.order, len(idx))
	for i, x := range idx {
		l.order[i] = in.jobs[x]
	}
	return l.order
}

// pack is the pipeline every backend runs. It parses the options,
// validates the request and builds the shared fitter; then the best
// usable warm seed, or else the backend's cold packing, is loaded onto
// the shared fitter's board and handed to the backend's polish step,
// and the result is checked for cancellation and validated. A backend
// supplies only cold and polish, so both share one warm-start,
// cancellation and validation contract.
//
// All scratch comes from a pooled workspace, given back on every path.
// cold packs into the workspace's buffers, so its winner is copied into
// a schedule of its own before the polish, whose unplace and place
// pairs never grow it: the returned schedule is the pack's one fresh
// allocation.
func pack(jobs []*Job, width int, opts []Option,
	cold func(ws *workspace) (*Schedule, error),
	polish func(s *Schedule, f *fitter)) (*Schedule, error) {
	if width < 1 || width > maxBinWidth {
		return nil, fmt.Errorf("tam: bin width %d outside [1, %d]", width, maxBinWidth)
	}
	if len(jobs) == 0 {
		return &Schedule{Width: width}, nil
	}
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	return ws.pack(jobs, width, opts, cold, polish)
}

// pack runs pack's pipeline for a non-empty job set and a valid width
// in ws's buffers.
func (ws *workspace) pack(jobs []*Job, width int, opts []Option,
	cold func(ws *workspace) (*Schedule, error),
	polish func(s *Schedule, f *fitter)) (*Schedule, error) {
	cfg := config{improvePasses: len(jobs), paretoOnly: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.ctx != nil {
		cfg.done = cfg.ctx.Done()
	}
	if err := ws.load(jobs, width, cfg); err != nil {
		return nil, err
	}
	shared := &ws.fit[0]

	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	s := warmSeed(jobs, width, cfg.warm, shared)
	if s == nil {
		c, err := cold(ws)
		if err != nil {
			return nil, err
		}
		s = &Schedule{Width: c.Width, Makespan: c.Makespan, Placements: make([]Placement, len(c.Placements))}
		copy(s.Placements, c.Placements)
	}
	shared.prepare(s.Placements)
	polish(s, shared)

	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("tam: internal error: produced invalid schedule: %w", err)
	}
	return s, nil
}

// warmSeed adopts (narrower seed) or re-places (wider seed) every warm
// seed and returns the one with the smallest pre-polish makespan,
// earlier seeds winning ties, or nil when no seed is usable. A usable
// seed is already feasible at this width, so it replaces the cold
// packing outright.
func warmSeed(jobs []*Job, width int, seeds []*Schedule, f *fitter) *Schedule {
	var best *Schedule
	for _, seed := range seeds {
		s := adoptSeed(jobs, width, seed)
		if s == nil {
			s = shrinkSeed(jobs, width, seed, f)
		}
		if s != nil && (best == nil || s.Makespan < best.Makespan) {
			best = s
		}
	}
	return best
}

// Optimize packs the jobs into a TAM of the given width, at most 65535
// wires, and returns a validated schedule. The heuristic follows the
// rectangle-packing formulation: jobs are considered longest-first, each
// is placed at the position and width option minimizing its finish time
// (preferring narrower widths on ties), and a bounded improvement loop
// then re-places the jobs that define the makespan, letting them widen
// into idle wires.
//
// The three complementary packing orderings are independent, so they run
// concurrently, the first on the shared fitter and the others on forks;
// the winner is chosen deterministically (smallest makespan, first
// ordering on ties), making the result identical to a sequential
// evaluation. Its polish is repack followed by improve.
func Optimize(jobs []*Job, width int, opts ...Option) (*Schedule, error) {
	return pack(jobs, width, opts, packOrderings, repackImprove)
}

// repackImprove is Optimize's polish: repack, then improve.
func repackImprove(s *Schedule, f *fitter) {
	repack(s, f)
	improve(s, f)
}

// packOrderings is Optimize's cold step. Greedy list scheduling is
// sensitive to the job order, so it packs three complementary orderings
// (chain weight, preferred time, volume), improves each, and keeps the
// smallest makespan, the first ordering winning ties. The polish runs
// only on the winner: repack re-places every job, so running it per
// ordering buys little for its cost.
//
// Each ordering packs into its own lane of ws on its own fitter: the
// first on the calling goroutine and the shared fitter, the others
// concurrently on forks. The winner is the winning lane's schedule,
// which the caller copies out before ws goes back to the pool.
func packOrderings(ws *workspace) (*Schedule, error) {
	in := &ws.in
	ws.keys = grow(ws.keys, len(in.jobs))
	for i, j := range in.jobs {
		ws.keys[i] = j.volume(in.width)
	}
	orderings := [len(ws.lane)][]int64{in.chain, in.prefTime, ws.keys}
	var wg sync.WaitGroup
	// Should the first ordering panic, the forks still finish before
	// ws goes back to the pool.
	defer wg.Wait()
	for oi := 1; oi < len(orderings); oi++ {
		key := orderings[oi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws.packLane(oi, key, ws.fork(oi))
		}()
	}
	ws.packLane(0, orderings[0], &ws.fit[0])
	wg.Wait()

	var best *Schedule
	for oi := range ws.lane {
		l := &ws.lane[oi]
		if l.err != nil {
			return nil, l.err
		}
		if best == nil || l.s.Makespan < best.Makespan {
			best = &l.s
		}
	}
	return best, nil
}

// packLane packs the jobs in descending key order into lane oi on f and
// improves the result, or records the packing's error in the lane.
func (ws *workspace) packLane(oi int, key []int64, f *fitter) {
	l := &ws.lane[oi]
	if l.err = packList(orderBy(&ws.in, key, l), f, &l.s); l.err == nil {
		improve(&l.s, f)
	}
}

// adoptSeed rebuilds a warm-start seed over this pack call's job
// set: placements are matched by job ID, durations re-derived from the
// current staircases, and the result validated against the (possibly
// wider) bin. It returns nil if the seed does not describe exactly this
// job set or is not feasible here, in which case the caller packs cold.
func adoptSeed(jobs []*Job, width int, seed *Schedule) *Schedule {
	if seed == nil || len(seed.Placements) != len(jobs) || seed.Width > width {
		return nil
	}
	byID := make(map[string]*Job, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
	}
	s := &Schedule{Width: width, Placements: make([]Placement, 0, len(jobs))}
	for i := range seed.Placements {
		sp := &seed.Placements[i]
		j := byID[sp.Job.ID]
		if j == nil || sp.Width < j.Options[0].Width || sp.Width > width {
			return nil
		}
		delete(byID, sp.Job.ID) // each job exactly once
		p := Placement{Job: j, Width: sp.Width, Start: sp.Start, WireLo: sp.WireLo}
		p.End = p.Start + timeFor(j, p.Width)
		s.Placements = append(s.Placements, p)
		if p.End > s.Makespan {
			s.Makespan = p.End
		}
	}
	if len(byID) != 0 || s.Validate() != nil {
		return nil
	}
	return s
}

// shrinkSeed adapts a warm-start seed from a WIDER bin, which cannot be
// adopted verbatim (its placements may overflow the narrower bin): the
// jobs are re-placed earliest-fit in the seed's placement order (start,
// wire, ID), a single guided packing that inherits the seed's structure
// for a third of the three-ordering cold cost. It returns nil if the
// seed is not from a wider bin or does not describe exactly this job
// set, in which case the caller packs cold.
func shrinkSeed(jobs []*Job, width int, seed *Schedule, f *fitter) *Schedule {
	if seed == nil || seed.Width <= width || len(seed.Placements) != len(jobs) {
		return nil
	}
	byID := make(map[string]*Job, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
	}
	idx := make([]int, len(seed.Placements))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := &seed.Placements[idx[a]], &seed.Placements[idx[b]]
		if pa.Start != pb.Start {
			return pa.Start < pb.Start
		}
		if pa.WireLo != pb.WireLo {
			return pa.WireLo < pb.WireLo
		}
		return pa.Job.ID < pb.Job.ID
	})
	order := make([]*Job, 0, len(jobs))
	for _, i := range idx {
		j := byID[seed.Placements[i].Job.ID]
		if j == nil {
			return nil
		}
		delete(byID, j.ID) // each job exactly once
		order = append(order, j)
	}
	if len(byID) != 0 {
		return nil
	}
	s := &Schedule{Width: width, Placements: make([]Placement, 0, len(order))}
	f.prepare(nil)
	for _, j := range order {
		p, ok := f.bestPlacement(j, math.MaxInt64)
		if !ok {
			return nil
		}
		f.place(s, p)
	}
	return s
}

// packList places the jobs earliest-fit in the given order into s,
// reusing the capacity of its placements.
func packList(order []*Job, f *fitter, s *Schedule) error {
	*s = Schedule{Width: f.binWidth, Placements: slices.Grow(s.Placements[:0], len(order))}
	f.prepare(nil)
	for _, j := range order {
		if err := f.cfg.ctxErr(); err != nil {
			return err
		}
		p, ok := f.bestPlacement(j, math.MaxInt64)
		if !ok {
			return fmt.Errorf("tam: could not place job %s", j.ID)
		}
		f.place(s, p)
	}
	return nil
}

// repack removes and re-places every job once, always picking the
// latest-finishing job not yet processed — the order is re-derived as
// ends move, rather than frozen by an up-front sort, so earlier moves
// inform later choices and every re-placement is checked against the
// live schedule (including its serialization groups). A re-placed job
// can always return to its old slot, so each step is monotone: neither
// the job's end nor the makespan ever increases. f's board must mirror
// s, and does again on return.
func repack(s *Schedule, f *fitter) {
	done := f.flags[:len(s.Placements)] // by placement, see markMoved
	clear(done)
	for {
		// On cancellation the schedule is abandoned by pack, so
		// bailing between steps (possibly leaving Makespan un-tightened)
		// is safe.
		if f.cfg.ctxErr() != nil {
			return
		}
		worst := -1
		for i := range s.Placements {
			p := &s.Placements[i]
			if done[i] {
				continue
			}
			if worst < 0 || p.End > s.Placements[worst].End ||
				(p.End == s.Placements[worst].End && p.Job.ID < s.Placements[worst].Job.ID) {
				worst = i
			}
		}
		if worst < 0 {
			break
		}
		removed := f.unplace(s, worst)
		p, ok := f.bestPlacement(removed.Job, removed.End)
		if !ok {
			p = removed
		}
		f.place(s, p)
		markMoved(done, worst)
	}
	s.Makespan = 0
	for i := range s.Placements {
		if s.Placements[i].End > s.Makespan {
			s.Makespan = s.Placements[i].End
		}
	}
}

// markMoved mirrors on flags, kept parallel to a schedule's placements,
// an unplace of placement i followed by a place: the last placement's
// flag moves into slot i, as the placement itself did, and the
// re-placed job, now last, is flagged. The polish loops mark the jobs
// they have handled this way, with no per-job lookup.
func markMoved(flags []bool, i int) {
	last := len(flags) - 1
	flags[i] = flags[last]
	flags[last] = true
}

// preferredWidth picks the narrowest option whose time meets the target
// makespan estimate, or the widest usable option if none does.
func preferredWidth(j *Job, binWidth int, target int64) int {
	u := j.usable(binWidth)
	for _, p := range u {
		if p.Time <= target {
			return p.Width
		}
	}
	return u[len(u)-1].Width
}

// candidateWidths lists the width options the packer will try.
func candidateWidths(j *Job, binWidth int, cfg config) []wrapper.Point {
	u := j.usable(binWidth)
	if cfg.paretoOnly {
		return u
	}
	// Full staircase: every width from the narrowest option to binWidth.
	var out []wrapper.Point
	for w := u[0].Width; w <= binWidth; w++ {
		out = append(out, wrapper.Point{Width: w, Time: timeFor(j, w)})
	}
	return out
}

// improve repeatedly re-places the jobs that define the makespan,
// allowing them to widen into idle wires or move, keeping any strict
// improvement. When one makespan-defining job cannot be improved the
// loop moves on to the next one instead of giving up — moving the others
// frees wires and windows that can unstick it on a later pass — and only
// stops once a whole pass leaves every makespan-defining job in place.
// f's board must mirror s, and does again on return.
func improve(s *Schedule, f *fitter) {
	tried := f.flags[:len(s.Placements)] // by placement, see markMoved
	for pass := 0; pass < f.cfg.improvePasses; pass++ {
		clear(tried)
		moved := false
		for {
			// Cancelled runs are abandoned by pack; see repack.
			if f.cfg.ctxErr() != nil {
				return
			}
			// The next makespan-defining placement not yet tried this
			// pass (stable choice by ID).
			worst := -1
			for i := range s.Placements {
				if s.Placements[i].End != s.Makespan || tried[i] {
					continue
				}
				if worst < 0 || s.Placements[i].Job.ID < s.Placements[worst].Job.ID {
					worst = i
				}
			}
			if worst < 0 {
				break
			}
			removed := f.unplace(s, worst)
			p, ok := f.bestPlacement(removed.Job, s.Makespan-1)
			if !ok {
				// No strict improvement for this job: restore it and try
				// the next makespan-defining job.
				p = removed
			} else {
				moved = true
			}
			f.place(s, p)
			markMoved(tried, worst)
		}
		if !moved {
			return
		}
		s.Makespan = 0
		for i := range s.Placements {
			if s.Placements[i].End > s.Makespan {
				s.Makespan = s.Placements[i].End
			}
		}
	}
}

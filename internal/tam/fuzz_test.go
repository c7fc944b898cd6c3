package tam

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mixsoc/internal/wrapper"
)

// randomJobs derives a reproducible random job set from (seed, nJobs,
// binWidth): staircases are strictly improving, a third of the jobs
// carry one of two serialization groups, and every job has at least one
// option that fits the bin.
func randomJobs(seed int64, nJobs, binWidth int) []*Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*Job, 0, nJobs)
	for i := 0; i < nJobs; i++ {
		w := 1 + rng.Intn(binWidth)
		tt := int64(20 + rng.Intn(300))
		pts := []wrapper.Point{{Width: w, Time: tt}}
		for len(pts) < 1+rng.Intn(4) {
			w += 1 + rng.Intn(8)
			tt -= 1 + rng.Int63n(tt/2+1)
			if tt <= 0 {
				break
			}
			pts = append(pts, wrapper.Point{Width: w, Time: tt})
		}
		j := &Job{ID: fmt.Sprintf("j%02d", i), Options: pts}
		if rng.Intn(3) == 0 {
			j.Group = fmt.Sprintf("g%d", rng.Intn(2))
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// earliestFit returns the earliest start time, no later than limit, and
// the lowest wire band at which a w×dur rectangle of serialization
// group gid (0 for none) fits on the board: the production sweep asked
// about a single width option.
func (f *fitter) earliestFit(gid int32, w int, dur, limit int64) (int64, int, bool) {
	maxEnd := int64(math.MaxInt64)
	if limit < math.MaxInt64-dur {
		maxEnd = limit + dur
	}
	opt := [1]wrapper.Point{{Width: w, Time: dur}}
	p, ok := f.sweep(opt[:], gid, maxEnd)
	return p.Start, p.WireLo, ok
}

// earliestFitScan is the per-wire counter-scan reference for
// earliestFit: a sweep over the full candidate set — 0, every
// placement's end and every start minus the duration, where earliestFit
// tries only 0 and the ends — over start and end orders it sorts from
// the placements itself, with candidates collected and sorted up
// front, one plain int32 occupancy counter per wire
// updated wire by wire, group membership compared by name, and an O(W)
// scan of the counters for each candidate's band search. It never reads
// the fitter's board, so it checks the board too. Production code never
// takes it.
func (f *fitter) earliestFitScan(j *Job, w int, dur int64, placements []Placement, limit int64) (int64, int, bool) {
	n := len(placements)
	byStart, byEnd := make([]int, n), make([]int, n)
	cands := []int64{0}
	for i := range placements {
		byStart[i], byEnd[i] = i, i
		cands = append(cands, placements[i].End, placements[i].Start-dur)
	}
	slices.SortFunc(byStart, func(a, b int) int { return cmp.Compare(placements[a].Start, placements[b].Start) })
	slices.SortFunc(byEnd, func(a, b int) int { return cmp.Compare(placements[a].End, placements[b].End) })
	slices.Sort(cands)
	cands = slices.Compact(cands)

	occ := make([]int32, f.binWidth)
	groupActive := 0
	si, ei := 0, 0
	for _, t := range cands {
		if t < 0 {
			continue
		}
		if t > limit {
			break
		}
		for si < n && placements[byStart[si]].Start < t+dur {
			p := &placements[byStart[si]]
			for wire := p.WireLo; wire < p.WireLo+p.Width; wire++ {
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
			}
			if j.Group != "" && p.Job.Group == j.Group {
				groupActive--
			}
			ei++
		}
		if groupActive == 0 {
			// Lowest contiguous band of w free wires in the profile.
			run := 0
			for wire := 0; wire < f.binWidth; wire++ {
				if occ[wire] != 0 {
					run = 0
					continue
				}
				run++
				if run >= w {
					return t, wire - w + 1, true
				}
			}
		}
	}
	return 0, 0, false
}

// bestPlacementScan is the reference for fitter.bestPlacement: every
// width option is swept in full by the counter scan, with none of
// bestPlacement's incumbent pruning, and the minimum in (end, width,
// start, wire) order wins.
func (f *fitter) bestPlacementScan(j *Job, placements []Placement) (Placement, bool) {
	var best Placement
	found := false
	for _, opt := range f.opts.of(j).pts {
		t, wireLo, ok := f.earliestFitScan(j, opt.Width, opt.Time, placements, math.MaxInt64)
		if !ok {
			continue
		}
		p := Placement{Job: j, Width: opt.Width, Start: t, End: t + opt.Time, WireLo: wireLo}
		if !found || cmp.Or(cmp.Compare(p.End, best.End), cmp.Compare(p.Width, best.Width),
			cmp.Compare(p.Start, best.Start), cmp.Compare(p.WireLo, best.WireLo)) < 0 {
			best, found = p, true
		}
	}
	return best, found
}

// TestEarliestFitReleaseInstants pins earliestFit, which visits only 0
// and the placements' ends, against the counter-scan reference, which
// also tries every start minus the query duration, on hand-built boards
// where such instants come before the answer: a start-minus-duration
// instant whose window still overlaps a rectangle or a group member, a
// job that fits only once a rectangle ends while others start earlier,
// a window that ends exactly where the next rectangle starts, an answer
// at the first of several ends, and a limit between those instants and
// the answer.
func TestEarliestFitReleaseInstants(t *testing.T) {
	type rect struct {
		lo, w      int
		start, end int64
		group      string
	}
	for _, tc := range []struct {
		name     string
		binWidth int
		rects    []rect
		w        int
		dur      int64
		group    string
		want     int64 // the earliest fit's start
	}{
		{"gap too short", 8, []rect{{0, 8, 0, 10, ""}, {0, 8, 12, 30, ""}}, 8, 5, "", 30},
		{"exact gap before a start", 8, []rect{{0, 8, 0, 6, ""}, {0, 8, 8, 10, ""}, {0, 8, 15, 30, ""}}, 8, 5, "", 10},
		{"first end, more to come", 8, []rect{{0, 8, 0, 10, ""}, {4, 4, 12, 14, ""}, {0, 4, 20, 30, ""}}, 4, 5, "", 10},
		{"fits after an end", 8, []rect{{0, 4, 0, 20, ""}, {4, 4, 5, 25, ""}, {2, 2, 22, 40, ""}}, 6, 3, "", 40},
		{"narrow band opens", 8, []rect{{0, 5, 0, 12, ""}, {5, 3, 3, 9, ""}, {5, 3, 11, 30, ""}}, 3, 4, "", 12},
		{"group member ahead", 8, []rect{{0, 2, 0, 10, "g"}, {6, 2, 15, 20, "g"}, {2, 2, 4, 8, ""}}, 2, 6, "g", 20},
		{"group and wires", 16, []rect{{0, 8, 0, 7, "g"}, {8, 8, 9, 18, ""}, {0, 16, 21, 24, ""}, {4, 4, 28, 35, "g"}}, 12, 6, "g", 35},
		{"multi-word bin", 100, []rect{{0, 70, 0, 50, ""}, {60, 40, 55, 90, ""}, {0, 40, 60, 80, ""}}, 45, 20, "", 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := make([]*Job, 0, len(tc.rects)+1)
			s := &Schedule{Width: tc.binWidth}
			for i, r := range tc.rects {
				j := &Job{ID: fmt.Sprintf("r%d", i), Options: []wrapper.Point{{Width: r.w, Time: r.end - r.start}}, Group: r.group}
				jobs = append(jobs, j)
				s.Placements = append(s.Placements, Placement{Job: j, Width: r.w, Start: r.start, End: r.end, WireLo: r.lo})
				s.Makespan = max(s.Makespan, r.end)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			placements := s.Placements
			probe := &Job{ID: "probe", Options: []wrapper.Point{{Width: tc.w, Time: tc.dur}}, Group: tc.group}
			jobs = append(jobs, probe)
			cfg := config{improvePasses: len(jobs), paretoOnly: true}
			f := newFitter(newOptionTable(jobs, tc.binWidth, cfg), tc.binWidth, cfg)
			f.prepare(placements)
			gid := f.opts.of(probe).gid

			// The board must hold a start-minus-duration instant before
			// the answer, or the case does not test what it claims.
			limits := []int64{math.MaxInt64, tc.want, tc.want - 1, 0}
			for _, p := range placements {
				if at := p.Start - tc.dur; at >= 0 {
					limits = append(limits, at)
				}
			}
			if slices.Min(limits[4:]) >= tc.want {
				t.Fatalf("no start-minus-duration instant precedes the answer %d", tc.want)
			}
			for _, limit := range limits {
				bt, bw, bok := f.earliestFit(gid, tc.w, tc.dur, limit)
				st, sw, sok := f.earliestFitScan(probe, tc.w, tc.dur, placements, limit)
				if bt != st || bw != sw || bok != sok {
					t.Errorf("limit %d: earliestFit (%d,%d,%v), scan (%d,%d,%v)", limit, bt, bw, bok, st, sw, sok)
				}
				if want := limit >= tc.want; bok != want || (bok && bt != tc.want) {
					t.Errorf("limit %d: earliestFit (%d,%v), want start %d found=%v", limit, bt, bok, tc.want, want)
				}
			}
		})
	}
}

// TestBestPlacementSharedSweep pins bestPlacement, which tries every
// width option of a job in one sweep, against the per-option
// counter-scan reference and a written-out answer on hand-built boards:
// a same-group start that blocks the narrow, long option's window but
// lies past the wide option's, a placement ending on the wires where
// another starts at the same instant, equal-time steps of the full
// staircase, where the narrower width wins, a bound only the shortest
// option can meet, and two boards where the room filter skips options.
func TestBestPlacementSharedSweep(t *testing.T) {
	type rect struct {
		lo, w      int
		start, end int64
		group      string
	}
	type want struct {
		width      int
		start, end int64
		wireLo     int
		found      bool
	}
	for _, tc := range []struct {
		name     string
		binWidth int
		rects    []rect
		opts     []wrapper.Point
		group    string
		full     bool // pack with the full staircase
		maxEnd   int64
		want     want
	}{
		{"group start past the short window", 8, []rect{{6, 2, 7, 20, "g"}, {0, 2, 0, 3, ""}},
			[]wrapper.Point{{Width: 2, Time: 10}, {Width: 4, Time: 5}}, "g", false, math.MaxInt64, want{4, 0, 5, 2, true}},
		{"end and start on one wire band", 8, []rect{{0, 4, 0, 10, ""}, {0, 4, 10, 20, ""}, {4, 4, 0, 30, ""}},
			[]wrapper.Point{{Width: 4, Time: 5}, {Width: 8, Time: 3}}, "", false, math.MaxInt64, want{4, 20, 25, 0, true}},
		{"equal times, narrower wins", 8, []rect{{0, 2, 0, 3, ""}},
			[]wrapper.Point{{Width: 2, Time: 10}, {Width: 5, Time: 4}}, "", true, math.MaxInt64, want{5, 0, 4, 2, true}},
		{"equal ends, narrower wins", 8, []rect{{3, 2, 0, 6, ""}},
			[]wrapper.Point{{Width: 2, Time: 10}, {Width: 5, Time: 4}}, "", true, math.MaxInt64, want{2, 0, 10, 0, true}},
		{"bound only the shortest meets", 8, []rect{{0, 8, 0, 3, ""}},
			[]wrapper.Point{{Width: 2, Time: 10}, {Width: 4, Time: 5}}, "", false, 8, want{4, 3, 8, 0, true}},
		{"bound none meets", 8, []rect{{0, 8, 0, 3, ""}},
			[]wrapper.Point{{Width: 2, Time: 10}, {Width: 4, Time: 5}}, "", false, 7, want{}},
		// At t = 0 the held wires leave a run of 4, so the room filter
		// skips the width-6 option, whose window [0, 4) holds the
		// same-group start at 2; the width-2 option's window holds it
		// too and ends the walk.
		{"skipped window holds a group start", 8, []rect{{0, 4, 0, 5, ""}, {4, 2, 2, 8, "g"}},
			[]wrapper.Point{{Width: 2, Time: 10}, {Width: 6, Time: 4}}, "g", false, math.MaxInt64, want{6, 8, 12, 0, true}},
		// At t = 0 the held wires leave a run of 2: only the narrowest
		// option fits, and it beats the wider ones' later ends.
		{"room admits only the narrowest", 8, []rect{{0, 6, 0, 20, ""}},
			[]wrapper.Point{{Width: 2, Time: 12}, {Width: 4, Time: 7}, {Width: 8, Time: 3}}, "", false, math.MaxInt64, want{2, 0, 12, 6, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := make([]*Job, 0, len(tc.rects)+1)
			s := &Schedule{Width: tc.binWidth}
			for i, r := range tc.rects {
				j := &Job{ID: fmt.Sprintf("r%d", i), Options: []wrapper.Point{{Width: r.w, Time: r.end - r.start}}, Group: r.group}
				jobs = append(jobs, j)
				s.Placements = append(s.Placements, Placement{Job: j, Width: r.w, Start: r.start, End: r.end, WireLo: r.lo})
				s.Makespan = max(s.Makespan, r.end)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			probe := &Job{ID: "probe", Options: tc.opts, Group: tc.group}
			if err := probe.Validate(tc.binWidth); err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, probe)
			cfg := config{improvePasses: len(jobs), paretoOnly: !tc.full}
			f := newFitter(newOptionTable(jobs, tc.binWidth, cfg), tc.binWidth, cfg)
			f.prepare(s.Placements)

			got, ok := f.bestPlacement(probe, tc.maxEnd)
			var exp Placement
			if tc.want.found {
				exp = Placement{Job: probe, Width: tc.want.width, Start: tc.want.start, End: tc.want.end, WireLo: tc.want.wireLo}
			}
			if ok != tc.want.found || got != exp {
				t.Errorf("bestPlacement = %+v/%v, want %+v/%v", got, ok, exp, tc.want.found)
			}
			scan, sok := f.bestPlacementScan(probe, s.Placements)
			if !sok {
				t.Fatal("the reference found no placement")
			}
			if fits := scan.End <= tc.maxEnd; ok != fits || (fits && got != scan) {
				t.Errorf("bestPlacement = %+v/%v, reference %+v (maxEnd %d)", got, ok, scan, tc.maxEnd)
			}
		})
	}
}

// FuzzFitterReference packs random job sets (bin widths 1–256, so both
// one-word and multi-word bitsets; 2–81 jobs, stacked many deep on a
// wire over time) on an incrementally maintained board and requires the
// bitset sweep to match the counter-scan reference at every step: raw
// earliest-fit answers for every width option, with and without a
// pruning limit, and the chosen placement. An odd stair byte packs with
// the full staircase, whose equal-time steps make the narrower width
// win ties. Any divergence is a bug in the sweep, the board or
// bestPlacement's pruning.
func FuzzFitterReference(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(12), uint8(0))
	f.Add(int64(7), uint8(1), uint8(5), uint8(0))
	f.Add(int64(42), uint8(63), uint8(16), uint8(0))
	f.Add(int64(99), uint8(31), uint8(9), uint8(0))
	f.Add(int64(1234), uint8(47), uint8(14), uint8(0))
	// Multi-word widths: just past one word, two full words, and wider.
	f.Add(int64(5), uint8(64), uint8(12), uint8(0))
	f.Add(int64(17), uint8(65), uint8(10), uint8(0))
	f.Add(int64(23), uint8(127), uint8(15), uint8(0))
	f.Add(int64(31), uint8(128), uint8(8), uint8(0))
	f.Add(int64(77), uint8(200), uint8(13), uint8(0))
	// Many jobs: 81 in a 16-wire bin stack up to 9 deep on one wire; 66
	// at W=200 stack up to 7 deep with most bands spanning two or more
	// words.
	f.Add(int64(68), uint8(15), uint8(79), uint8(0))
	f.Add(int64(11), uint8(199), uint8(64), uint8(0))
	// Full staircases: runs of equal-time widths, in one and two words.
	f.Add(int64(1), uint8(8), uint8(12), uint8(1))
	f.Add(int64(42), uint8(63), uint8(16), uint8(1))
	f.Add(int64(17), uint8(65), uint8(10), uint8(1))
	f.Add(int64(68), uint8(15), uint8(79), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, widthByte, nByte, stairByte uint8) {
		binWidth := 1 + int(widthByte)
		n := 2 + int(nByte)%80
		jobs := randomJobs(seed, n, binWidth)

		cfg := config{improvePasses: len(jobs), paretoOnly: stairByte%2 == 0}
		opts := newOptionTable(jobs, binWidth, cfg)
		fit := newFitter(opts, binWidth, cfg)

		s := &Schedule{Width: binWidth}
		for _, j := range jobs {
			// Raw earliest-fit answers must agree for every width option,
			// with and without a pruning limit.
			for _, opt := range opts.of(j).pts {
				for _, limit := range []int64{math.MaxInt64, 100} {
					bt, bw, bok := fit.earliestFit(opts.of(j).gid, opt.Width, opt.Time, limit)
					st, sw, sok := fit.earliestFitScan(j, opt.Width, opt.Time, s.Placements, limit)
					if bt != st || bw != sw || bok != sok {
						t.Fatalf("earliestFit(%s, w=%d, dur=%d, limit=%d) diverges: bitset (%d,%d,%v) scan (%d,%d,%v)",
							j.ID, opt.Width, opt.Time, limit, bt, bw, bok, st, sw, sok)
					}
				}
			}
			bp, bok := fit.bestPlacement(j, math.MaxInt64)
			sp, sok := fit.bestPlacementScan(j, s.Placements)
			if bok != sok || bp != sp {
				t.Fatalf("bestPlacement(%s) diverges: bitset %+v/%v scan %+v/%v", j.ID, bp, bok, sp, sok)
			}
			if !bok {
				t.Fatalf("could not place %s in width-%d bin", j.ID, binWidth)
			}
			fit.place(s, bp)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("packed schedule invalid: %v", err)
		}
	})
}

// checkBoard requires f's board to hold exactly the edges a fresh
// prepare of s builds, each array sorted by key. Equal keys may sit in
// either order, so both boards are compared in (key, wire) order.
func checkBoard(t *testing.T, f *fitter, s *Schedule) {
	t.Helper()
	byKey := func(a, b edge) int { return cmp.Compare(a.key, b.key) }
	if !slices.IsSortedFunc(f.starts, byKey) || !slices.IsSortedFunc(f.ends, byKey) {
		t.Fatalf("board out of key order:\nstarts %v\nends %v", f.starts, f.ends)
	}
	fresh := f.fork()
	fresh.prepare(s.Placements)
	canon := func(es []edge) []edge {
		return slices.SortedFunc(slices.Values(es), func(a, b edge) int {
			return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.lo, b.lo))
		})
	}
	if !slices.Equal(canon(f.starts), canon(fresh.starts)) || !slices.Equal(canon(f.ends), canon(fresh.ends)) {
		t.Fatalf("board diverges from a fresh prepare:\nstarts %v want %v\nends %v want %v",
			f.starts, fresh.starts, f.ends, fresh.ends)
	}
}

// FuzzFitterBoard applies random place/unplace sequences to valid
// schedules of random job sets and, after every step, requires the
// incrementally sorted board to equal a fresh prepare of the live
// placements and bestPlacement to match the counter-scan reference for
// a job not on the board. Placements come from bestPlacement itself,
// bounded or not, so every schedule stays valid. An odd stair byte
// packs with the full staircase, as in FuzzFitterReference.
func FuzzFitterBoard(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(12), uint8(40), uint8(0))
	f.Add(int64(7), uint8(1), uint8(5), uint8(30), uint8(0))
	f.Add(int64(42), uint8(63), uint8(16), uint8(60), uint8(0))
	f.Add(int64(17), uint8(65), uint8(10), uint8(50), uint8(0))
	f.Add(int64(77), uint8(200), uint8(13), uint8(80), uint8(0))
	f.Add(int64(68), uint8(15), uint8(79), uint8(200), uint8(0))
	f.Add(int64(1), uint8(8), uint8(12), uint8(40), uint8(1))
	f.Add(int64(17), uint8(65), uint8(10), uint8(50), uint8(1))
	f.Add(int64(68), uint8(15), uint8(79), uint8(200), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, widthByte, nByte, stepsByte, stairByte uint8) {
		binWidth := 1 + int(widthByte)
		n := 2 + int(nByte)%80
		jobs := randomJobs(seed, n, binWidth)
		cfg := config{improvePasses: len(jobs), paretoOnly: stairByte%2 == 0}
		fit := newFitter(newOptionTable(jobs, binWidth, cfg), binWidth, cfg)
		rng := rand.New(rand.NewSource(seed))

		s := &Schedule{Width: binWidth}
		off := slices.Clone(jobs) // jobs not on the board
		for range int(stepsByte) {
			if len(off) > 0 {
				j := off[rng.Intn(len(off))]
				bp, bok := fit.bestPlacement(j, math.MaxInt64)
				sp, sok := fit.bestPlacementScan(j, s.Placements)
				if bok != sok || bp != sp {
					t.Fatalf("bestPlacement(%s) diverges: board %+v/%v scan %+v/%v", j.ID, bp, bok, sp, sok)
				}
			}
			if len(off) > 0 && (len(s.Placements) == 0 || rng.Intn(3) > 0) {
				k := rng.Intn(len(off))
				j := off[k]
				// A bounded query may come back empty; the unbounded one
				// always places.
				p, ok := fit.bestPlacement(j, rng.Int63n(2*s.Makespan+400))
				if !ok {
					p, _ = fit.bestPlacement(j, math.MaxInt64)
				}
				fit.place(s, p)
				off = slices.Delete(off, k, k+1)
			} else {
				p := fit.unplace(s, rng.Intn(len(s.Placements)))
				off = append(off, p.Job)
			}
			checkBoard(t, fit, s)
			if err := s.Validate(); err != nil {
				t.Fatalf("schedule invalid: %v", err)
			}
		}
	})
}

// TestBestPlacementBounded pins the bounded query against the unbounded
// one over random schedules: for every placed job, taken off the board,
// bestPlacement(j, maxEnd) must return the unbounded answer whenever
// that ends by maxEnd, and nothing otherwise — for maxEnd at the job's
// old end (repack's bound), the makespan minus one (improve's), zero,
// and random values.
func TestBestPlacementBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		binWidth := 1 + rng.Intn(130)
		jobs := randomJobs(int64(trial), 2+rng.Intn(30), binWidth)
		cfg := config{improvePasses: len(jobs), paretoOnly: true}
		f := newFitter(newOptionTable(jobs, binWidth, cfg), binWidth, cfg)
		s := new(Schedule)
		if err := packList(jobs, f, s); err != nil {
			t.Fatal(err)
		}
		for _, p := range slices.Clone(s.Placements) {
			removed := f.unplace(s, slices.IndexFunc(s.Placements, func(q Placement) bool { return q.Job == p.Job }))
			want, wok := f.bestPlacement(removed.Job, math.MaxInt64)
			if !wok {
				t.Fatalf("trial %d: %s has no unbounded placement", trial, removed.Job.ID)
			}
			for _, maxEnd := range []int64{removed.End, s.Makespan - 1, 0, rng.Int63n(s.Makespan + 1), rng.Int63n(2*s.Makespan + 1)} {
				got, ok := f.bestPlacement(removed.Job, maxEnd)
				if fits := want.End <= maxEnd; ok != fits || (fits && got != want) {
					t.Fatalf("trial %d: bestPlacement(%s, %d) = %+v/%v, unbounded %+v", trial, removed.Job.ID, maxEnd, got, ok, want)
				}
			}
			f.place(s, removed)
		}
	}
}

// TestLowestFreeRun pins the bitset band search against a wire-by-wire
// reference on one-word and multi-word bins: word-boundary-straddling
// runs, partial last words, and random bitsets.
func TestLowestFreeRun(t *testing.T) {
	ref := func(busy []uint64, binWidth, w int) int {
		run := 0
		for wire := 0; wire < binWidth; wire++ {
			if busy[wire>>6]&(1<<uint(wire&63)) != 0 {
				run = 0
				continue
			}
			run++
			if run >= w {
				return wire - w + 1
			}
		}
		return -1
	}
	set := func(busy []uint64, wires ...int) {
		for _, wire := range wires {
			busy[wire>>6] |= 1 << uint(wire&63)
		}
	}

	// Hand-picked shapes over one-word and multi-word bins: an empty
	// bitset, and a free run straddling the 64-bit boundary (in a
	// one-word bin, a free run in the bin's top wires).
	for _, binWidth := range []int{1, 31, 64, 65, 100, 128, 129, 200} {
		words := (binWidth + 63) / 64
		empty := make([]uint64, words)
		for _, w := range []int{1, 63, 64, 65, binWidth, binWidth + 1} {
			if got, want := lowestFreeRun(empty, binWidth, w), ref(empty, binWidth, w); got != want {
				t.Fatalf("empty bitset binWidth=%d w=%d: got %d, want %d", binWidth, w, got, want)
			}
		}
		straddle := make([]uint64, words)
		for wire := 0; wire < min(60, binWidth-1); wire++ {
			set(straddle, wire)
		}
		for wire := 70; wire < binWidth; wire++ {
			set(straddle, wire)
		}
		for _, w := range []int{1, 5, 10, 11} {
			if got, want := lowestFreeRun(straddle, binWidth, w), ref(straddle, binWidth, w); got != want {
				t.Fatalf("straddle binWidth=%d w=%d: got %d, want %d", binWidth, w, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		binWidth := 1 + rng.Intn(264)
		words := (binWidth + 63) / 64
		busy := make([]uint64, words)
		for wi := range busy {
			switch rng.Intn(4) {
			case 0: // mostly busy
				busy[wi] = rng.Uint64() | rng.Uint64()
			case 1: // mostly free
				busy[wi] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			case 2:
				busy[wi] = rng.Uint64()
			case 3: // all free
			}
		}
		w := 1 + rng.Intn(binWidth+2)
		if got, want := lowestFreeRun(busy, binWidth, w), ref(busy, binWidth, w); got != want {
			t.Fatalf("random bitset %d (binWidth=%d, w=%d): got %d, want %d", i, binWidth, w, got, want)
		}
	}
}

// TestLongestFreeRun pins the room filter's run length against a
// wire-by-wire reference on bins of 1–200 wires: empty and full
// bitsets, runs straddling word boundaries, partial last words, empty
// and full words between mixed ones, and random bitsets.
func TestLongestFreeRun(t *testing.T) {
	ref := func(busy []uint64, binWidth int) int {
		longest, run := 0, 0
		for wire := 0; wire < binWidth; wire++ {
			if busy[wire>>6]&(1<<uint(wire&63)) != 0 {
				run = 0
				continue
			}
			run++
			longest = max(longest, run)
		}
		return longest
	}
	check := func(name string, busy []uint64, binWidth int) {
		t.Helper()
		if got, want := longestFreeRun(busy, binWidth), ref(busy, binWidth); got != want {
			t.Fatalf("%s (binWidth=%d, %x): got %d, want %d", name, binWidth, busy, got, want)
		}
	}
	// busyExcept returns a bitset with every wire busy but [lo, hi).
	busyExcept := func(binWidth, lo, hi int) []uint64 {
		busy := make([]uint64, (binWidth+63)/64)
		for wire := 0; wire < binWidth; wire++ {
			if wire < lo || wire >= hi {
				busy[wire>>6] |= 1 << uint(wire&63)
			}
		}
		return busy
	}

	for binWidth := 1; binWidth <= 200; binWidth++ {
		words := (binWidth + 63) / 64
		// Bits past binWidth are never wires, whether set or clear.
		empty, full := make([]uint64, words), make([]uint64, words)
		check("empty", empty, binWidth)
		empty[words-1] = ^uint64(0) << uint(binWidth-(words-1)*64) // 0 on a whole last word
		check("empty, spare bits set", empty, binWidth)
		for wi := range full {
			full[wi] = ^uint64(0)
		}
		check("full", full, binWidth)
		check("full, spare bits clear", busyExcept(binWidth, 0, 0), binWidth)
		for _, r := range [][2]int{{60, 70}, {0, 64}, {63, 65}, {64, 128}, {120, 140}, {127, 200}, {binWidth - 3, binWidth}} {
			check("one run", busyExcept(binWidth, max(0, r[0]), min(binWidth, r[1])), binWidth)
		}
	}
	// Runs across an all-free middle word between mixed words, and an
	// all-busy middle word cutting a run.
	for _, binWidth := range []int{129, 150, 192, 200} {
		busy := busyExcept(binWidth, 40, 140)
		busy[0] |= 1 << 50 // split the first run: 40–49, then 51–139
		check("free middle word", busy, binWidth)
		busy = make([]uint64, (binWidth+63)/64)
		busy[1] = ^uint64(0)
		check("busy middle word", busy, binWidth)
	}

	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 20000; i++ {
		binWidth := 1 + rng.Intn(200)
		busy := make([]uint64, (binWidth+63)/64)
		for wi := range busy {
			switch rng.Intn(5) {
			case 0: // mostly busy
				busy[wi] = rng.Uint64() | rng.Uint64()
			case 1: // mostly free
				busy[wi] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			case 2:
				busy[wi] = rng.Uint64()
			case 3:
				busy[wi] = ^uint64(0)
			case 4: // all free
			}
		}
		check(fmt.Sprintf("random bitset %d", i), busy, binWidth)
	}
}

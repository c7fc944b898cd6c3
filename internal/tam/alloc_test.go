package tam

import (
	"math"
	"slices"
	"testing"
	"unsafe"
)

// TestPackHotPathAllocs pins the packing hot path's allocations: the
// staircase queries are sub-slices of a job's options, a warmed fitter
// places, unplaces and answers earliest-fit and best-placement queries
// (bounded or not, for an ungrouped and a grouped job) from its own
// board and scratch, as does the room filter's run length, and a whole
// Optimize or PackRectangle call on p93791 stays within a small fixed
// budget of allocations and bytes. With its scratch borrowed from a
// pooled workspace, a pack allocates its options, the schedule it
// returns and, for Optimize, the two forked orderings' goroutines:
// Optimize measured 6 allocations and 1,664 B when pinned,
// PackRectangle 3 and 1,530 B.
func TestPackHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const width = 32
	jobs := digitalJobs(t, width)
	j := jobs[0]
	queries := map[string]func(){
		"usable":    func() { _ = j.usable(width) },
		"widest":    func() { _ = j.widest(width) },
		"minTime":   func() { _ = j.minTime(width) },
		"volume":    func() { _ = j.volume(width) },
		"minVolume": func() { _ = j.minVolume(width) },
	}
	for name, fn := range queries {
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s: %v allocs/run, want 0", name, got)
		}
	}

	// The board's edges stay compact and pointer-free: a wider edge
	// measurably raised a cold plan's allocated bytes.
	if got := unsafe.Sizeof(edge{}); got != 16 {
		t.Errorf("edge is %d bytes, want 16", got)
	}

	s, err := Optimize(jobs, width)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{improvePasses: len(jobs), paretoOnly: true}
	f := newFitter(newOptionTable(jobs, width, cfg), width, cfg)
	f.prepare(s.Placements)
	last := len(s.Placements) - 1
	removed := f.unplace(s, last)
	probe := removed.Job
	opt := f.opts.of(probe).pts[0]
	// Serialization groups take the sweep's group paths: a held
	// same-group placement skips an instant, and a same-group start
	// ahead cuts the option walk short.
	grouped := randomJobs(1, 40, width)
	gs, err := Optimize(grouped, width)
	if err != nil {
		t.Fatal(err)
	}
	gf := newFitter(newOptionTable(grouped, width, cfg), width, cfg)
	gf.prepare(gs.Placements)
	gRemoved := gf.unplace(gs, slices.IndexFunc(gs.Placements, func(p Placement) bool { return p.Job.Group != "" }))
	// A filtered grouped query: with fJob off the board too, no member of
	// its group is held at t = 0 and the held wires leave less room than
	// its widest option, so the query's first instant runs the room
	// filter and skips options.
	var fJob *Job
	var held []uint64
	for _, c := range gs.Placements {
		h, blocked := make([]uint64, 1), false
		for _, p := range gs.Placements {
			if p.Start == 0 && p.Job != c.Job {
				blocked = blocked || p.Job.Group == c.Job.Group
				h[0] |= (1<<uint(p.Width) - 1) << uint(p.WireLo)
			}
		}
		pts := gf.opts.of(c.Job).pts
		if c.Job.Group != "" && !blocked && longestFreeRun(h, width) < pts[len(pts)-1].Width {
			fJob, held = c.Job, h
			break
		}
	}
	if fJob == nil {
		t.Fatal("no grouped job whose query the room filter prunes at t = 0")
	}
	gf.unplace(gs, slices.IndexFunc(gs.Placements, func(p Placement) bool { return p.Job == fJob }))
	fitterOps := []struct {
		name string
		fn   func()
	}{
		{"earliestFit", func() {
			if _, _, ok := f.earliestFit(f.opts.of(probe).gid, opt.Width, opt.Time, math.MaxInt64); !ok {
				t.Fatal("earliestFit found no placement")
			}
		}},
		{"bestPlacement", func() {
			if _, ok := f.bestPlacement(probe, math.MaxInt64); !ok {
				t.Fatal("bestPlacement found no placement")
			}
		}},
		{"bounded bestPlacement", func() {
			if _, ok := f.bestPlacement(probe, removed.End); !ok {
				t.Fatal("bounded bestPlacement found no placement")
			}
		}},
		{"grouped bestPlacement", func() {
			if _, ok := gf.bestPlacement(gRemoved.Job, math.MaxInt64); !ok {
				t.Fatal("grouped bestPlacement found no placement")
			}
		}},
		{"grouped bounded bestPlacement", func() {
			if _, ok := gf.bestPlacement(gRemoved.Job, gRemoved.End); !ok {
				t.Fatal("grouped bounded bestPlacement found no placement")
			}
		}},
		{"longestFreeRun", func() { _ = longestFreeRun(held, width) }},
		{"filtered grouped bestPlacement", func() {
			if _, ok := gf.bestPlacement(fJob, math.MaxInt64); !ok {
				t.Fatal("filtered grouped bestPlacement found no placement")
			}
		}},
		{"place+unplace", func() {
			f.place(s, removed)
			f.unplace(s, last)
		}},
	}
	for _, op := range fitterOps {
		if got := testing.AllocsPerRun(100, op.fn); got != 0 {
			t.Errorf("%s: %v allocs/run, want 0", op.name, got)
		}
	}

	for _, pin := range []struct {
		name                    string
		pack                    func([]*Job, int, ...Option) (*Schedule, error)
		allocBudget, byteBudget int64
	}{
		{"Optimize", Optimize, 8, 2000},
		{"PackRectangle", PackRectangle, 5, 1750},
	} {
		if got := testing.AllocsPerRun(20, func() {
			if _, err := pin.pack(jobs, width); err != nil {
				t.Fatal(err)
			}
		}); got > float64(pin.allocBudget) {
			t.Errorf("%s(p93791, W=%d): %v allocs/run, want <= %d", pin.name, width, got, pin.allocBudget)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := pin.pack(jobs, width); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := r.AllocedBytesPerOp(); got > pin.byteBudget {
			t.Errorf("%s(p93791, W=%d): %d B/op, want <= %d", pin.name, width, got, pin.byteBudget)
		}
	}
}

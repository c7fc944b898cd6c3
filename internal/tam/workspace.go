package tam

import (
	"slices"
	"sync"
)

// workspace is the scratch of one pack call: the instance, the option
// table, the fitters and the cold orderings' buffers. pack borrows one
// from workspaces and gives it back on every path, so a steady stream of
// packs reuses the same buffers and allocates only the schedules it
// returns. A workspace serves one pack at a time; within it, each cold
// ordering owns one fitter and one lane, so the concurrent orderings
// share nothing but read-only data.
type workspace struct {
	in   instance
	opts optionTable
	// fit[0] is the shared fitter: the warm seeds, the cold step's first
	// ordering and the polish run on it. packOrderings' other two
	// orderings run on the forks fit[1] and fit[2].
	fit  [3]fitter
	lane [3]lane

	seen   map[string]bool  // validateJobs' job IDs
	groups map[string]int64 // each serialization group's total time
	keys   []int64          // packOrderings' volume ordering key
	diag   []float64        // packDiagonal's ordering key
}

// lane is one cold ordering's scratch: the orderBy index and order
// buffers and the schedule the ordering is packed into.
type lane struct {
	idx   []int32
	order []*Job
	s     Schedule
	err   error
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// release scrubs ws and returns it to the pool.
func (ws *workspace) release() {
	ws.scrub()
	workspaces.Put(ws)
}

// scrub drops every reference ws holds to a caller's data — jobs, their
// staircases and IDs, placements, the context and the warm seeds — so a
// pooled workspace never keeps a job set alive. The buffers themselves
// stay for the next pack.
func (ws *workspace) scrub() {
	ws.in.jobs = nil
	clear(ws.opts.idx)
	clear(ws.opts.jobs[:cap(ws.opts.jobs)])
	for i := range ws.fit {
		ws.fit[i].cfg = config{}
	}
	for i := range ws.lane {
		l := &ws.lane[i]
		clear(l.order[:cap(l.order)])
		clear(l.s.Placements[:cap(l.s.Placements)])
		l.err = nil
	}
	clear(ws.seen)
	clear(ws.groups)
}

// grow returns s resized to n elements, reusing its array when it is
// large enough. The elements' values are unspecified.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// load validates a non-empty job set and builds the instance, the
// option table and the shared fitter for a pack of the jobs at the
// given width.
func (ws *workspace) load(jobs []*Job, width int, cfg config) error {
	if ws.seen == nil {
		ws.seen = make(map[string]bool, len(jobs))
		ws.groups = make(map[string]int64)
		ws.opts.idx = make(map[*Job]int32, len(jobs))
	}
	if err := validateJobs(jobs, width, ws.seen); err != nil {
		return err
	}
	ws.in.load(jobs, width, ws.groups)
	ws.opts.load(jobs, width, cfg)
	ws.fit[0].load(ws.opts, width, cfg)
	return nil
}

// fork returns fitter i loaded like the shared fitter, for a concurrent
// packing goroutine.
func (ws *workspace) fork(i int) *fitter {
	f := &ws.fit[i]
	f.load(ws.opts, ws.fit[0].binWidth, ws.fit[0].cfg)
	return f
}

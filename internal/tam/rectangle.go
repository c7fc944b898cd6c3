package tam

import (
	"fmt"
	"sort"
)

// PackRectangle packs the jobs into a TAM of the given width using the
// rectangle bin-packing formulation: each (module, width option) is a
// width×time rectangle, and jobs are placed one at a time in the
// diagonal-length order of arXiv 1008.4446 — longest diagonal first,
// where a job's diagonal is measured on its preferred rectangle with
// both axes normalized to the instance (width by the bin width, time by
// the longest preferred duration), so neither axis dominates by unit
// choice alone. Serialization groups weight the time axis by the whole
// group's serial duration, for the same reason Optimize does: a chain
// of short tests behaves like one long rectangle.
//
// Each job is placed by the same earliest-fit bestPlacement machinery
// as the occupancy backend — minimizing (end, width, start, wire) over
// the job's staircase options — and the shared improve polish then
// re-places the makespan-defining jobs. Unlike Optimize there is no
// three-ordering race and no repack pass: the backend is a genuinely
// different (and cheaper) search trajectory, which is what makes the
// cross-backend differential tests a meaningful oracle.
//
// PackRectangle honours the full Option set: WithWarmStart seeds are
// adopted or adapted exactly as in Optimize (best pre-polish makespan
// wins) and skip the cold ordering, WithContext cancels between
// placements, and the result always passes Schedule.Validate.
func PackRectangle(jobs []*Job, width int, opts ...Option) (*Schedule, error) {
	cfg := config{improvePasses: len(jobs), paretoOnly: true}
	for _, o := range opts {
		o(&cfg)
	}
	if width < 1 {
		return nil, fmt.Errorf("tam: bin width %d < 1", width)
	}
	if len(jobs) == 0 {
		return &Schedule{Width: width}, nil
	}
	if err := validateJobs(jobs, width); err != nil {
		return nil, err
	}

	target := packTarget(jobs, width)

	// The group chain weight and per-job preferred rectangle, shared
	// with Optimize's ordering logic (see the groupTotal comment there).
	groupTotal := map[string]int64{}
	for _, j := range jobs {
		if j.Group != "" {
			groupTotal[j.Group] += j.minTime(width)
		}
	}
	prefWidths := make(map[*Job]int, len(jobs))
	prefTimes := make(map[*Job]int64, len(jobs))
	chainTimes := make(map[*Job]int64, len(jobs))
	var maxChain int64 = 1 // avoid division by zero on all-zero times
	for _, j := range jobs {
		w := preferredWidth(j, width, target)
		prefWidths[j] = w
		prefTimes[j] = timeFor(j, w)
		ct := prefTimes[j]
		if j.Group != "" {
			ct = groupTotal[j.Group]
		}
		chainTimes[j] = ct
		if ct > maxChain {
			maxChain = ct
		}
	}

	// Squared normalized diagonal length of each job's preferred
	// rectangle. The squares and the sum are kept in separate
	// statements so no fused multiply-add can perturb the comparison
	// order across architectures.
	diag := make(map[*Job]float64, len(jobs))
	for _, j := range jobs {
		x := float64(prefWidths[j]) / float64(width)
		y := float64(chainTimes[j]) / float64(maxChain)
		xx := x * x
		yy := y * y
		diag[j] = xx + yy
	}

	order := append([]*Job(nil), jobs...)
	sort.Slice(order, func(a, b int) bool {
		da, db := diag[order[a]], diag[order[b]]
		if da != db {
			return da > db
		}
		ta, tb := prefTimes[order[a]], prefTimes[order[b]]
		if ta != tb {
			return ta > tb
		}
		return order[a].ID < order[b].ID
	})

	shared := newFitter(newOptionTable(jobs, width, cfg), width, cfg)

	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}

	// Warm seeds take the same shortcut as in Optimize: the best
	// adopted or adapted seed replaces the cold ordering and goes
	// straight to the polish loop.
	if len(cfg.warm) > 0 {
		var adopted *Schedule
		for _, seed := range cfg.warm {
			s := adoptSeed(jobs, width, seed)
			if s == nil {
				s = shrinkSeed(jobs, width, seed, shared)
			}
			if s != nil && (adopted == nil || s.Makespan < adopted.Makespan) {
				adopted = s
			}
		}
		if adopted != nil {
			improve(adopted, shared)
			if err := cfg.ctxErr(); err != nil {
				return nil, err
			}
			if err := adopted.Validate(); err != nil {
				return nil, fmt.Errorf("tam: internal error: produced invalid schedule: %w", err)
			}
			return adopted, nil
		}
	}

	s, err := packList(order, shared)
	if err != nil {
		return nil, err
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("tam: internal error: produced invalid schedule: %w", err)
	}
	return s, nil
}

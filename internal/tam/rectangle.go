package tam

// packRectangle packs the jobs into a TAM of the given width, at most
// 65535 wires, using the rectangle bin-packing formulation: each
// (module, width option) is a width×time rectangle, and jobs are placed
// one at a time in the diagonal-length order of arXiv 1008.4446 —
// longest diagonal first, where a job's diagonal is measured on its
// preferred rectangle with both axes normalized to the instance (width
// by the bin width, time by the longest preferred duration), so neither
// axis dominates by unit choice alone. Serialization groups weight the
// time axis by the whole group's serial duration, for the same reason
// optimize does: a chain of short tests behaves like one long rectangle.
//
// Each job is placed by the same earliest-fit bestPlacement machinery
// as the occupancy backend — minimizing (end, width, start, wire) over
// the job's staircase options — and the shared improve polish then
// re-places the makespan-defining jobs. Unlike optimize there is no
// three-ordering race and no repack pass: the backend is a genuinely
// different (and cheaper) search trajectory, which is what makes the
// cross-backend differential tests a meaningful oracle.
//
// packRectangle honours the full Option set through the pipeline it
// shares with optimize: WithWarmStart seeds are adopted or adapted the
// same way (best pre-polish makespan wins) and skip the cold ordering,
// WithContext cancels between placements, and the result always passes
// Schedule.Validate.
func packRectangle(jobs []*Job, width int, opts ...Option) (*Schedule, error) {
	return pack(jobs, width, opts, packDiagonal, improve)
}

// packDiagonal is packRectangle's cold step: one earliest-fit pass in
// descending order of each job's squared normalized diagonal, into the
// workspace's first lane on the shared fitter.
func packDiagonal(ws *workspace) (*Schedule, error) {
	in := &ws.in
	var maxChain int64 = 1 // avoid division by zero on all-zero times
	for _, c := range in.chain {
		maxChain = max(maxChain, c)
	}
	// Squared normalized diagonal length of each job's preferred
	// rectangle. The squares and the sum are kept in separate
	// statements so no fused multiply-add can perturb the comparison
	// order across architectures.
	ws.diag = grow(ws.diag, len(in.jobs))
	diag := ws.diag
	for i, j := range in.jobs {
		x := float64(preferredWidth(j, in.width, in.target)) / float64(in.width)
		y := float64(in.chain[i]) / float64(maxChain)
		xx := x * x
		yy := y * y
		diag[i] = xx + yy
	}
	l := &ws.lane[0]
	if err := packList(orderBy(in, diag, l), &ws.fit[0], &l.s); err != nil {
		return nil, err
	}
	return &l.s, nil
}

package core

import "mixsoc/internal/partition"

// SessionTable returns the costed candidate table of the engine's
// session for the design hash, and the session's design; ok is false
// when there is no such session.
func SessionTable(e *Engine, hash string) (table *candidateTable, d *Design, ok bool, err error) {
	e.mu.Lock()
	s := e.sessions[hash]
	e.mu.Unlock()
	if s == nil {
		return nil, nil, false, nil
	}
	table, err = s.table.get()
	return table, s.design, true, err
}

// CostCandidates costs d's candidates afresh under the cost model and
// policy NewPlanner installs.
func CostCandidates(d *Design) (*candidateTable, error) {
	pl := NewPlanner(d, 1, EqualWeights)
	return costCandidates(d, pl.CostModel, pl.Policy)
}

// BoundProbes returns every feasible candidate of pl's design, in
// candidate order, with the cost lower bound Bounded mode's O(1) probe
// prunes it by at normalization time allShare, on a fresh evaluator.
func BoundProbes(pl *Planner, allShare int64) ([]partition.Partition, []float64, error) {
	t, err := costCandidates(pl.Design, pl.CostModel, pl.Policy)
	if err != nil {
		return nil, nil, err
	}
	e := pl.evaluator()
	ps := make([]partition.Partition, len(t.feasible))
	lbs := make([]float64, len(t.feasible))
	for i := range t.feasible {
		ps[i] = t.feasible[i].p
		if lbs[i], err = pl.bound(e, &t.feasible[i], allShare); err != nil {
			return nil, nil, err
		}
	}
	return ps, lbs, nil
}

package core

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

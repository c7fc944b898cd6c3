package core

import (
	"fmt"
	"sync/atomic"

	"mixsoc/internal/tam"
)

// BackendTournament names the tournament meta-backend: every registered
// tam backend packs the same jobs and the schedule with the smallest
// validated makespan wins (ties to the earlier backend in registry
// order, i.e. the default occupancy backend). It is selectable wherever
// a backend name is accepted — PlanOptions, SweepOptions, the serving
// layer's `backend` field, `msoc-plan -backend` — but is never the
// default: a tournament packs every backend, so it costs a multiple of
// a single-backend plan.
const BackendTournament = "tournament"

// Backends lists the selectable packing backend names: the tam registry
// (default first) plus the tournament meta-backend. The slice is fresh
// on every call.
func Backends() []string {
	return append(tam.Backends(), BackendTournament)
}

// PackerFor resolves a backend selection name to a tam.Packer. The
// empty string — no selection — is the default occupancy backend, as in
// tam.Lookup. An unknown name is an error listing the selectable
// backends; the serving layer maps it to a 400.
func PackerFor(name string) (tam.Packer, error) {
	if name == BackendTournament {
		return NewTournamentPacker(), nil
	}
	p, err := tam.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("core: unknown packing backend %q (have %v)", name, Backends())
	}
	return p, nil
}

// NewTournamentPacker returns a Packer running every registered tam
// backend on each job set and keeping the best validated makespan; see
// BackendTournament for the tie rule. The engine wires its own
// instrumented variant; this constructor serves direct Planner use and
// the differential tests.
func NewTournamentPacker() tam.Packer {
	backends := make([]tam.Packer, 0, 2)
	for _, name := range tam.Backends() {
		p, err := tam.Lookup(name)
		if err != nil {
			// The registry lists only names it resolves; reaching here
			// would be a registry bug, not a caller error.
			panic(err)
		}
		backends = append(backends, p)
	}
	return &tournamentPacker{backends: backends}
}

// tournamentPacker implements the backend tournament. Every backend
// already validates its own output (their shared contract), so the
// minimum-makespan winner is a validated schedule by construction — and
// never worse than any individual backend on the same inputs, the
// property the differential suite asserts.
type tournamentPacker struct {
	backends []tam.Packer
	// onWin, when non-nil, observes the winning backend's name once per
	// successful pack; the engine hooks its tournament win counters here.
	onWin func(name string)
}

// Compile-time interface assertion: the tournament is a Packer too.
var _ tam.Packer = (*tournamentPacker)(nil)

// Name implements tam.Packer.
func (t *tournamentPacker) Name() string { return BackendTournament }

// Pack implements tam.Packer by racing every backend sequentially and
// returning the schedule with the smallest makespan. Any backend error
// fails the tournament: the backends share one pre-pack validation
// contract, so an error is either caller input (identical for every
// backend) or cancellation (which must propagate, not be outvoted).
func (t *tournamentPacker) Pack(jobs []*tam.Job, width int, opts ...tam.Option) (*tam.Schedule, error) {
	var best *tam.Schedule
	var winner string
	for _, b := range t.backends {
		s, err := b.Pack(jobs, width, opts...)
		if err != nil {
			return nil, err
		}
		if best == nil || s.Makespan < best.Makespan {
			best, winner = s, b.Name()
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: tournament packer has no backends")
	}
	if t.onWin != nil {
		t.onWin(winner)
	}
	return best, nil
}

// backendCounters is one backend's engine-lifetime pack accounting.
type backendCounters struct {
	ok, errs, wins atomic.Uint64
}

// countingPacker wraps a backend so every pack lands in the engine's
// per-backend counters. Results pass through untouched.
type countingPacker struct {
	tam.Packer
	c *backendCounters
}

// Compile-time interface assertion for the instrumented wrapper.
var _ tam.Packer = countingPacker{}

// Pack implements tam.Packer, counting the outcome.
func (p countingPacker) Pack(jobs []*tam.Job, width int, opts ...tam.Option) (*tam.Schedule, error) {
	s, err := p.Packer.Pack(jobs, width, opts...)
	if err != nil {
		p.c.errs.Add(1)
	} else {
		p.c.ok.Add(1)
	}
	return s, err
}

// BackendPackStats counts one backend's engine pack outcomes.
type BackendPackStats struct {
	// OK is the number of packs that returned a validated schedule.
	OK uint64 `json:"ok"`
	// Errors is the number of packs that returned an error (bad input or
	// cancellation).
	Errors uint64 `json:"errors"`
}

package tam

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// The backend registry is the contract every selection surface (CLI
// flag, request field, job manifest) resolves against: a fixed name
// list, the empty name meaning the default, and unknown names failing
// loudly with the valid names spelled out.
func TestBackendRegistry(t *testing.T) {
	want := []string{BackendOccupancy, BackendRectangle}
	got := Backends()
	if len(got) != len(want) {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Backends() = %v, want %v", got, want)
		}
	}
	for name, wantName := range map[string]string{
		"":               BackendOccupancy,
		BackendOccupancy: BackendOccupancy,
		BackendRectangle: BackendRectangle,
	} {
		pk, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if pk.Name() != wantName {
			t.Fatalf("Lookup(%q).Name() = %q, want %q", name, pk.Name(), wantName)
		}
	}
	_, err := Lookup("bogus")
	if err == nil {
		t.Fatal("Lookup(\"bogus\") did not fail")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-backend error %q does not list %q", err, name)
		}
	}
}

// The rectangle backend must satisfy the shared schedule contract and
// be deterministic: same jobs, same bytes, run after run.
func TestRectanglePackerContract(t *testing.T) {
	jobs := digitalJobs(t, 48)
	s, err := rectanglePacker{}.Pack(jobs, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("rectangle schedule invalid: %v", err)
	}
	if len(s.Placements) != len(jobs) {
		t.Fatalf("placed %d of %d jobs", len(s.Placements), len(jobs))
	}
	if lb := AdmissibleFloor(jobs, 48).Makespan(48); s.Makespan < lb {
		t.Fatalf("makespan %d below admissible lower bound %d", s.Makespan, lb)
	}
	for i := 0; i < 3; i++ {
		again, err := rectanglePacker{}.Pack(jobs, 48)
		if err != nil {
			t.Fatal(err)
		}
		if again.CSV() != s.CSV() {
			t.Fatalf("run %d: rectangle schedule not deterministic", i)
		}
	}
}

// The rectangle backend shares the warm-start contract: a narrower
// seed is adopted verbatim and the monotone polish can only improve
// it, so the warm result is never worse than the seed.
func TestRectangleWarmStart(t *testing.T) {
	jobs := digitalJobs(t, 48)
	seed, err := rectanglePacker{}.Pack(jobs, 32)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := rectanglePacker{}.Pack(jobs, 48, WithWarmStart(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Validate(); err != nil {
		t.Fatalf("warm rectangle schedule invalid: %v", err)
	}
	if warm.Width != 48 {
		t.Fatalf("warm width = %d, want 48", warm.Width)
	}
	if warm.Makespan > seed.Makespan {
		t.Errorf("warm makespan %d worse than seed %d", warm.Makespan, seed.Makespan)
	}
}

// The rectangle backend shares the cancellation contract: a cancelled
// context aborts the pack with context.Canceled, warm or cold.
func TestRectangleCancellation(t *testing.T) {
	jobs := digitalJobs(t, 48)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (rectanglePacker{}).Pack(jobs, 48, WithContext(cancelled)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold pack under a cancelled context: err = %v, want context.Canceled", err)
	}
	seed, err := rectanglePacker{}.Pack(jobs, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (rectanglePacker{}).Pack(jobs, 48, WithWarmStart(seed), WithContext(cancelled)); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm pack under a cancelled context: err = %v, want context.Canceled", err)
	}
}

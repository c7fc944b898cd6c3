package proptest

import (
	"strings"
	"testing"

	"mixsoc/internal/core"
	"mixsoc/internal/itc02"
	"mixsoc/internal/socgen"
	"mixsoc/internal/tam"
)

// FuzzPackerEquivalence asserts the cross-backend contract on fuzzed
// job lists: any parse-valid SOC (of harness-capped size) must pack
// through every backend without panicking, and every backend's schedule
// must validate, place each job exactly once, and stay at or above the
// admissible lower bound. The seeds — embedded benchmarks and msoc-gen
// output — run as regular tests; run with -fuzz=FuzzPackerEquivalence
// to explore.
func FuzzPackerEquivalence(f *testing.F) {
	f.Add(itc02.Format(itc02.D281()))
	f.Add(itc02.Format(itc02.D695()))
	f.Add(itc02.Format(itc02.G1023()))
	for seed := int64(1); seed <= 4; seed++ {
		soc, err := socgen.GenerateSOC(socgen.Options{Seed: seed, Class: socgen.Small})
		if err != nil {
			f.Fatalf("GenerateSOC: %v", err)
		}
		f.Add(itc02.Format(soc))
	}
	f.Add("SocName tiny\nTotalModules 1\nModule 0\n  Level 0\n  Inputs 4\n  Outputs 4\nEndModule\n")

	f.Fuzz(func(t *testing.T, input string) {
		soc, err := itc02.Parse(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; FuzzParse covers the parser itself
		}
		if oversized(soc) {
			return
		}
		d := &core.Design{Name: soc.Name + "-m", Digital: soc, Analog: fuzzAnalog()}
		jobs, err := core.BuildJobs(d, d.AllShare(), fuzzWidth)
		if err != nil {
			t.Fatalf("building jobs for a parse-valid SOC failed: %v\n%s", err, input)
		}
		for _, backend := range tam.Backends() {
			pk, err := tam.Lookup(backend)
			if err != nil {
				t.Fatalf("Lookup(%q): %v", backend, err)
			}
			s, err := pk.Pack(jobs, fuzzWidth)
			if err != nil {
				t.Fatalf("%s: packing a parse-valid SOC failed: %v\n%s", backend, err, input)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: invalid schedule: %v\n%s", backend, err, input)
			}
			if len(s.Placements) != len(jobs) {
				t.Fatalf("%s: placed %d of %d jobs\n%s", backend, len(s.Placements), len(jobs), input)
			}
			if lb := tam.AdmissibleFloor(jobs, fuzzWidth).Makespan(fuzzWidth); s.Makespan < lb {
				t.Fatalf("%s: makespan %d below admissible lower bound %d\n%s", backend, s.Makespan, lb, input)
			}
		}
	})
}

package proptest

import (
	"context"
	"strings"
	"testing"

	"mixsoc/internal/analog"
	"mixsoc/internal/core"
	"mixsoc/internal/itc02"
	"mixsoc/internal/socgen"
)

// Harness caps: the planning guarantee is over SOCs of sane size. They
// keep a fuzz iteration bounded (packing is superlinear in module
// count) and keep test times inside int64 (the JETTA formula multiplies
// the longest wrapper chain by the pattern count).
const (
	fuzzMaxModules    = 48
	fuzzMaxPatterns   = 1 << 20
	fuzzMaxScanChains = 256
	fuzzMaxScanBits   = 1 << 20
	fuzzMaxTerminals  = 1 << 16
	fuzzWidth         = 16
)

// fuzzAnalog returns two fresh narrow analog cores (paper cores A and
// B; every test fits in a couple of wires), so any parse-valid digital
// SOC becomes a plannable mixed design at fuzzWidth.
func fuzzAnalog() []*analog.Core {
	all := analog.PaperCores()
	return []*analog.Core{all[0], all[1]}
}

// FuzzPlanSOC asserts the end-to-end contract behind the .soc upload
// endpoint: if itc02.Parse accepts a SOC (of harness-capped size),
// planning must not panic, must not error, and must produce a schedule
// that validates. Run with -fuzz=FuzzPlanSOC to explore; the seeds —
// embedded benchmarks and msoc-gen output — run as regular tests.
func FuzzPlanSOC(f *testing.F) {
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
		res, err := core.NewPlanner(d, fuzzWidth, core.Weights{Time: 0.5, Area: 0.5}).CostOptimizer()
		if err != nil {
			t.Fatalf("planning a parse-valid SOC failed: %v\n%s", err, input)
		}
		s, err := core.NewEngine(core.EngineOptions{}).Schedule(context.Background(), d, res.Best.Partition, fuzzWidth, "")
		if err != nil {
			t.Fatalf("scheduling the chosen configuration failed: %v", err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("planner produced an invalid schedule: %v", err)
		}
	})
}

// oversized reports whether the SOC exceeds the harness caps.
func oversized(soc *itc02.SOC) bool {
	if len(soc.Modules) > fuzzMaxModules {
		return true
	}
	for _, m := range soc.Modules {
		if m.Inputs+m.Outputs+m.Bidirs > fuzzMaxTerminals {
			return true
		}
		if len(m.Scan) > fuzzMaxScanChains {
			return true
		}
		bits := 0
		for _, l := range m.Scan {
			bits += l
			if bits > fuzzMaxScanBits {
				return true
			}
		}
		for _, tst := range m.Tests {
			if tst.Patterns > fuzzMaxPatterns {
				return true
			}
		}
	}
	return false
}

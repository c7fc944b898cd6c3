package wrapper_test

import (
	"testing"

	"mixsoc/internal/itc02"
	"mixsoc/internal/socgen"
	"mixsoc/internal/wrapper"
)

// The allocation-free staircase path (timeWith / waterFillMax) must
// reproduce the reference design computation exactly for every module
// and width — Pareto and BestTime are defined in terms of New. The
// modules are every core of the five registry benchmarks, 30 Medium and
// Large socgen designs, a module with no scan chains and one with a
// zero-length chain; widths 1–128 take both the no-more-chains-than-
// wires shortcut and the BFD partition for most of them.
func TestFastTimeMatchesDesign(t *testing.T) {
	var mods []*itc02.Module
	for _, soc := range []*itc02.SOC{itc02.D281(), itc02.D695(), itc02.G1023(), itc02.P93791(), itc02.T512505()} {
		mods = append(mods, soc.Cores()...)
	}
	for seed := int64(1); seed <= 30; seed++ {
		class := socgen.Medium
		if seed%2 == 0 {
			class = socgen.Large
		}
		soc, err := socgen.GenerateSOC(socgen.Options{Seed: seed, Class: class})
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, soc.Cores()...)
	}
	scanTest := []itc02.Test{{ID: 1, Patterns: 40, ScanUse: true, TamUse: true}}
	mods = append(mods,
		&itc02.Module{ID: 901, Name: "noscan", Inputs: 37, Outputs: 12, Bidirs: 3, Tests: scanTest},
		&itc02.Module{ID: 902, Name: "zerochain", Inputs: 9, Outputs: 30, Scan: []int{14, 0, 6}, Tests: scanTest},
	)

	const maxW = 128
	for _, m := range mods {
		got := wrapper.FastTimes(m, maxW)
		for w := 1; w <= maxW; w++ {
			ref, err := wrapper.Time(m, w)
			if err != nil {
				t.Fatal(err)
			}
			if got[w-1] != ref {
				t.Fatalf("module %d (%s, %d chains) width %d: timeWith = %d, Time = %d",
					m.ID, m.Name, len(m.Scan), w, got[w-1], ref)
			}
		}
	}
}

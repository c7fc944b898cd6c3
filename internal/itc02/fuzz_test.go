package itc02

import (
	"strings"
	"testing"
)

// FuzzParse checks the parser never panics and that anything it accepts
// survives a format/parse round trip. Run with -fuzz=FuzzParse for
// exploration; the seeds below run as regular tests.
func FuzzParse(f *testing.F) {
	f.Add(toySOC)
	f.Add(Format(P93791()))
	f.Add(Format(D281()))
	f.Add(Format(D695()))
	f.Add(Format(G1023()))
	f.Add(Format(T512505()))
	f.Add("SocName x\n")
	f.Add("SocName x\nModule 1\nEndModule\n")
	f.Add("SocName x\nTotalModules 0\n# nothing\n")
	f.Add("Module 1\n")
	f.Add("SocName x\nModule 1\n  ScanChainLengths 1 2 3\nEndModule\n")
	f.Add("SocName x\nModule 1\n  Test 1\n    Patterns 5\n  EndTest\nEndModule\n")
	f.Add(strings.Repeat("SocName x\n", 3))

	f.Fuzz(func(t *testing.T, input string) {
		soc, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted SOCs must be valid and round-trip stable.
		if verr := soc.Validate(); verr != nil {
			t.Fatalf("parser accepted invalid SOC: %v", verr)
		}
		text := Format(soc)
		back, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("rendered SOC does not reparse: %v\n%s", err, text)
		}
		if Format(back) != text {
			t.Fatal("format/parse round trip not stable")
		}
	})
}

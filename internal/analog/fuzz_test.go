package analog

import (
	"strings"
	"testing"
)

// FuzzParseCores checks the analog-core parser never panics and that
// accepted inputs are valid and round-trip stable.
func FuzzParseCores(f *testing.F) {
	f.Add(FormatCores(PaperCores()))
	f.Add("AnalogCore A\n Test t\n  Fsample 1kHz\n  Cycles 1\n  TamWidth 1\n EndTest\nEndAnalogCore\n")
	f.Add("AnalogCore A\nEndAnalogCore\n")
	f.Add("# empty\n")
	f.Add("AnalogCore A\n Kind x y z\n Test q\n  Band DC 1MHz\n  Fsample 8MHz\n  Cycles 9\n  TamWidth 2\n  Resolution 12\n EndTest\nEndAnalogCore\n")

	f.Fuzz(func(t *testing.T, input string) {
		cores, err := ParseCores(strings.NewReader(input))
		if err != nil {
			return
		}
		for _, c := range cores {
			if verr := c.Validate(); verr != nil {
				t.Fatalf("parser accepted invalid core: %v", verr)
			}
		}
		text := FormatCores(cores)
		back, err := ParseCores(strings.NewReader(text))
		if err != nil {
			t.Fatalf("rendered cores do not reparse: %v\n%s", err, text)
		}
		if FormatCores(back) != text {
			t.Fatal("format/parse round trip not stable")
		}
	})
}

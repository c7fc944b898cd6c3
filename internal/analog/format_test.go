package analog

import (
	"strings"
	"testing"
)

func TestParseHertz(t *testing.T) {
	cases := []struct {
		in   string
		want Hertz
	}{
		{"DC", 0}, {"dc", 0},
		{"700Hz", 700}, {"700hz", 700}, {"700", 700},
		{"50kHz", 50e3}, {"50KHZ", 50e3},
		{"1.5MHz", 1.5e6}, {"78mhz", 78e6},
		{"2.46MHz", 2.46e6},
	}
	for _, tc := range cases {
		got, err := parseHertz(tc.in)
		if err != nil {
			t.Errorf("parseHertz(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseHertz(%q) = %v, want %v", tc.in, float64(got), float64(tc.want))
		}
	}
	for _, bad := range []string{"", "fast", "-3kHz", "1.2.3MHz"} {
		if _, err := parseHertz(bad); err == nil {
			t.Errorf("parseHertz(%q) accepted", bad)
		}
	}
}

func TestCoreFormatRoundTrip(t *testing.T) {
	orig := PaperCores()
	text := FormatCores(orig)
	back, err := ParseCores(strings.NewReader(text))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if len(back) != len(orig) {
		t.Fatalf("cores = %d, want %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i].Name != orig[i].Name || back[i].Kind != orig[i].Kind {
			t.Errorf("core %d header mismatch: %+v vs %+v", i, back[i], orig[i])
		}
		if len(back[i].Tests) != len(orig[i].Tests) {
			t.Fatalf("core %s: %d tests, want %d", orig[i].Name, len(back[i].Tests), len(orig[i].Tests))
		}
		for j := range orig[i].Tests {
			if back[i].Tests[j] != orig[i].Tests[j] {
				t.Errorf("core %s test %d: %+v vs %+v", orig[i].Name, j, back[i].Tests[j], orig[i].Tests[j])
			}
		}
	}
	// Idempotent rendering.
	if FormatCores(back) != text {
		t.Error("rendering not stable across round trip")
	}
}

func TestParseCoresErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"top level", "Bogus x\n", "expected 'AnalogCore"},
		{"eof core", "AnalogCore A\n", "unexpected EOF"},
		{"eof test", "AnalogCore A\n Test t\n", "unexpected EOF"},
		{"bad keyword", "AnalogCore A\n Zap 1\nEndAnalogCore\n", "unexpected keyword"},
		{"band arity", "AnalogCore A\n Test t\n  Band 1kHz\n EndTest\nEndAnalogCore\n", "two frequencies"},
		{"bad freq", "AnalogCore A\n Test t\n  Fsample soon\n EndTest\nEndAnalogCore\n", "bad frequency"},
		{"bad int", "AnalogCore A\n Test t\n  Cycles many\n EndTest\nEndAnalogCore\n", "not an integer"},
		{"invalid core", "AnalogCore A\nEndAnalogCore\n", "no tests"},
		{"invalid test", "AnalogCore A\n Test t\n  Fsample 1kHz\n  TamWidth 1\n  Resolution 8\n EndTest\nEndAnalogCore\n", "cycles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseCores(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("accepted bad input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseCoresComments(t *testing.T) {
	in := `
# the whole file can be commented
AnalogCore X  # no trailing comment support on the name itself is needed
  Kind multi word kind string
  Test g
    Band DC 20kHz
    Fsample 640kHz
    Cycles 100
    TamWidth 1
    Resolution 8
  EndTest
EndAnalogCore
`
	cores, err := ParseCores(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cores[0].Kind != "multi word kind string" {
		t.Errorf("Kind = %q", cores[0].Kind)
	}
	if cores[0].Tests[0].FinLow != 0 || cores[0].Tests[0].FinHigh != 20*KHz {
		t.Errorf("band = %v..%v", cores[0].Tests[0].FinLow, cores[0].Tests[0].FinHigh)
	}
}

func TestFormatHertzLossless(t *testing.T) {
	// Values that would round under %.4g must render losslessly.
	for _, f := range []Hertz{0, 700, 136533, 2.46 * MHz, 1.7 * MHz, 50 * KHz, 78 * MHz, 12345} {
		s := formatHertz(f)
		back, err := parseHertz(s)
		if err != nil {
			t.Fatalf("%v -> %q: %v", float64(f), s, err)
		}
		if back != f {
			t.Errorf("formatHertz(%v) = %q, parses to %v", float64(f), s, float64(back))
		}
	}
}

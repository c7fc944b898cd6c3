package itc02

import (
	"strings"
	"testing"
	"testing/quick"
)

const toySOC = `
# a toy SOC
SocName toy
TotalModules 3

Module 0
  Name top
  Level 0
  Inputs 8
  Outputs 8
  Bidirs 0
  TotalTests 0
EndModule

Module 1
  Name filter
  Level 1
  Inputs 10
  Outputs 4
  Bidirs 2
  ScanChains 3
  ScanChainLengths 20 18 9
  TotalTests 2
  Test 1
    Patterns 120
    ScanUse 1
    TamUse 1
  EndTest
  Test 2
    Patterns 33
    ScanUse 0
    TamUse 1
  EndTest
EndModule

Module 2
  Name glue   # trailing comment
  Level 1
  Inputs 6
  Outputs 6
  Bidirs 0
  TotalTests 1
  Test 1
    Patterns 40
    ScanUse 0
    TamUse 1
  EndTest
EndModule
`

func TestParseToy(t *testing.T) {
	s, err := Parse(strings.NewReader(toySOC))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "toy" {
		t.Errorf("Name = %q", s.Name)
	}
	if len(s.Modules) != 3 {
		t.Fatalf("modules = %d, want 3", len(s.Modules))
	}
	m := s.Module(1)
	if m.Name != "filter" || m.Inputs != 10 || m.Bidirs != 2 {
		t.Errorf("module 1 parsed wrong: %+v", m)
	}
	if len(m.Scan) != 3 || m.Scan[2] != 9 {
		t.Errorf("scan = %v", m.Scan)
	}
	if len(m.Tests) != 2 {
		t.Fatalf("tests = %d", len(m.Tests))
	}
	if m.Tests[1].ScanUse || !m.Tests[1].TamUse || m.Tests[1].Patterns != 33 {
		t.Errorf("test 2 parsed wrong: %+v", m.Tests[1])
	}
	if g := s.Module(2); g.Name != "glue" {
		t.Errorf("comment handling broke Name: %q", g.Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"empty", "", "missing SocName"},
		{"bad keyword", "SocName x\nBogus 3\n", "unexpected keyword"},
		{"bad int", "SocName x\nTotalModules three\n", "not an integer"},
		{"module eof", "SocName x\nModule 1\n  Inputs 3\n", "unexpected EOF"},
		{"test eof", "SocName x\nModule 1\n  Test 1\n", "unexpected EOF"},
		{"module count", "SocName x\nTotalModules 2\nModule 1\nEndModule\n", "does not match"},
		{"scan count", "SocName x\nModule 1\n  ScanChains 2\n  ScanChainLengths 5\nEndModule\n", "does not match"},
		{"test count", "SocName x\nModule 1\n  TotalTests 2\nEndModule\n", "does not match"},
		{"bool range", "SocName x\nModule 1\n  Test 1\n    ScanUse 2\n  EndTest\nEndModule\n", "wants 0 or 1"},
		{"dup socname", "SocName x\nSocName y\n", "duplicate SocName"},
		{"test kw", "SocName x\nModule 1\n  Test 1\n    Inputs 3\n  EndTest\nEndModule\n", "unexpected keyword"},
		{"scanlen int", "SocName x\nModule 1\n  ScanChainLengths 5 x\nEndModule\n", "not an integer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("parse accepted bad input")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse(strings.NewReader("SocName x\nBogus 1\n"))
	pe, ok := err.(*parseError)
	if !ok {
		t.Fatalf("error type %T, want *parseError", err)
	}
	if pe.line != 2 {
		t.Errorf("line = %d, want 2", pe.line)
	}
}

// TestRoundTrip checks Write∘Parse is the identity on the embedded
// benchmark and on the toy SOC.
func TestRoundTrip(t *testing.T) {
	for _, orig := range []*SOC{P93791(), mustParse(t, toySOC)} {
		text := Format(orig)
		back, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("reparse %s: %v", orig.Name, err)
		}
		if Format(back) != text {
			t.Errorf("%s: round trip not stable", orig.Name)
		}
	}
}

func mustParse(t *testing.T, s string) *SOC {
	t.Helper()
	soc, err := Parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return soc
}

// Property: any structurally valid SOC survives a Write/Parse round trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(nMod uint8, scanSeed uint16, patSeed uint16) bool {
		s := &SOC{Name: "q"}
		n := int(nMod%6) + 1
		for i := 1; i <= n; i++ {
			m := &Module{ID: i, Name: "m", Level: 1,
				Inputs: int(scanSeed % 37), Outputs: int(patSeed % 23)}
			for k := 0; k < int(scanSeed%4); k++ {
				m.Scan = append(m.Scan, 1+int(scanSeed%97)+k)
			}
			m.Tests = append(m.Tests, Test{
				ID: 1, Patterns: int(patSeed % 1000),
				ScanUse: len(m.Scan) > 0, TamUse: true,
			})
			s.AddModule(m)
		}
		back, err := Parse(strings.NewReader(Format(s)))
		if err != nil {
			return false
		}
		return Format(back) == Format(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

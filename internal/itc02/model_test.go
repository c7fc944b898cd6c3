package itc02

import (
	"strings"
	"testing"
	"testing/quick"
)

// LongestScanChain returns the length of the longest internal scan chain,
// or 0 for combinational modules.
func (m *Module) LongestScanChain() int {
	longest := 0
	for _, l := range m.Scan {
		longest = max(longest, l)
	}
	return longest
}

func TestSOCBasics(t *testing.T) {
	s := &SOC{Name: "toy"}
	s.AddModule(&Module{ID: 0, Name: "top", Level: 0, Inputs: 4, Outputs: 4})
	s.AddModule(&Module{
		ID: 1, Name: "c1", Level: 1, Inputs: 3, Outputs: 2, Bidirs: 1,
		Scan:  []int{10, 8, 6},
		Tests: []Test{{ID: 1, Patterns: 100, ScanUse: true, TamUse: true}},
	})
	s.AddModule(&Module{
		ID: 2, Name: "c2", Level: 1, Inputs: 5, Outputs: 5,
		Tests: []Test{{ID: 1, Patterns: 50, TamUse: true}},
	})

	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(s.Cores()); got != 2 {
		t.Errorf("Cores() = %d, want 2 (module 0 excluded)", got)
	}
	m := s.Module(1)
	if m == nil {
		t.Fatal("Module(1) = nil")
	}
	if got := m.ScanBits(); got != 24 {
		t.Errorf("ScanBits = %d, want 24", got)
	}
	if got := m.LongestScanChain(); got != 10 {
		t.Errorf("LongestScanChain = %d, want 10", got)
	}
	if got := m.Patterns(); got != 100 {
		t.Errorf("Patterns = %d, want 100", got)
	}
	// (24 scan + 3 in + 1 bidir) * 100 patterns
	if got := m.TestDataVolume(); got != 2800 {
		t.Errorf("TestDataVolume = %d, want 2800", got)
	}
	if s.Module(99) != nil {
		t.Error("Module(99) should be nil")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		soc  *SOC
	}{
		{"no name", &SOC{}},
		{"negative id", &SOC{Name: "x", Modules: []*Module{{ID: -1}}}},
		{"duplicate id", &SOC{Name: "x", Modules: []*Module{{ID: 1}, {ID: 1}}}},
		{"negative terminals", &SOC{Name: "x", Modules: []*Module{{ID: 1, Inputs: -2}}}},
		{"zero-length chain", &SOC{Name: "x", Modules: []*Module{{ID: 1, Scan: []int{4, 0}}}}},
		{"negative patterns", &SOC{Name: "x", Modules: []*Module{{ID: 1, Tests: []Test{{Patterns: -1}}}}}},
		{"scan test without chains", &SOC{Name: "x", Modules: []*Module{{ID: 1, Tests: []Test{{Patterns: 1, ScanUse: true}}}}}},
		{"nil module", &SOC{Name: "x", Modules: []*Module{nil}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.soc.Validate(); err == nil {
				t.Error("Validate accepted invalid SOC")
			}
		})
	}
}

func TestSortedScanDescending(t *testing.T) {
	m := &Module{Scan: []int{3, 9, 1, 7}}
	got := m.SortedScanDescending()
	want := []int{9, 7, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedScanDescending = %v, want %v", got, want)
		}
	}
	// original untouched
	if m.Scan[0] != 3 {
		t.Error("SortedScanDescending mutated the module")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := P93791()
	c := s.Clone()
	c.Modules[1].Scan[0] = 99999
	c.Modules[1].Tests[0].Patterns = 7
	if s.Modules[1].Scan[0] == 99999 {
		t.Error("Clone shares scan slice")
	}
	if s.Modules[1].Tests[0].Patterns == 7 {
		t.Error("Clone shares tests slice")
	}
}

func TestP93791Shape(t *testing.T) {
	s := P93791()
	if err := s.Validate(); err != nil {
		t.Fatalf("embedded benchmark invalid: %v", err)
	}
	cores := s.Cores()
	if len(cores) != 32 {
		t.Fatalf("p93791 has %d cores, want 32", len(cores))
	}
	var volume int64
	scanCores := 0
	for _, m := range cores {
		volume += m.TestDataVolume()
		if len(m.Scan) > 0 {
			scanCores++
		}
	}
	// Calibration targets from DESIGN.md: total volume in the
	// 25M..32M bit-cycle band so W=32 packing lands near 0.9M cycles.
	if volume < 25e6 || volume > 32e6 {
		t.Errorf("total test data volume = %d, want within [25e6, 32e6]", volume)
	}
	if scanCores < 20 {
		t.Errorf("scan cores = %d, want >= 20", scanCores)
	}
	// Deterministic: two calls yield identical data.
	s2 := P93791()
	if Format(s) != Format(s2) {
		t.Error("P93791 is not deterministic")
	}
}

func TestP93791String(t *testing.T) {
	got := P93791().String()
	if !strings.Contains(got, "p93791") || !strings.Contains(got, "33 modules") {
		t.Errorf("String() = %q", got)
	}
}

func TestScanBitsNeverNegative(t *testing.T) {
	f := func(lengths []uint8) bool {
		m := &Module{}
		for _, l := range lengths {
			m.Scan = append(m.Scan, int(l)+1)
		}
		sum := 0
		for _, l := range m.Scan {
			sum += l
		}
		return m.ScanBits() == sum && m.LongestScanChain() <= sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

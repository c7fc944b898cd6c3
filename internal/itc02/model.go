package itc02

import (
	"fmt"
	"sort"
)

// SOC is a system-on-chip under test: a named collection of modules.
// Module 0 (if present) is the SOC-level module describing chip pins and
// carries no tests; it is stored like any other module but excluded from
// Cores.
type SOC struct {
	Name    string
	Modules []*Module
}

// Module is an embedded core (or the SOC-level module, ID 0).
type Module struct {
	ID      int
	Name    string
	Level   int   // hierarchy level; 0 is the SOC itself
	Inputs  int   // functional input terminals
	Outputs int   // functional output terminals
	Bidirs  int   // functional bidirectional terminals
	Scan    []int // internal scan chain lengths, flip-flops per chain
	Tests   []Test
}

// Test is one test of a module, applied through the module's wrapper.
type Test struct {
	ID       int
	Patterns int  // number of test patterns
	ScanUse  bool // patterns are shifted through scan chains
	TamUse   bool // test is delivered over the TAM
}

// AddModule appends m and returns it, for fluent construction.
func (s *SOC) AddModule(m *Module) *Module {
	s.Modules = append(s.Modules, m)
	return m
}

// Module returns the module with the given ID, or nil.
func (s *SOC) Module(id int) *Module {
	for _, m := range s.Modules {
		if m.ID == id {
			return m
		}
	}
	return nil
}

// Cores returns the testable modules: every module except module 0 and
// modules with no tests.
func (s *SOC) Cores() []*Module {
	var cores []*Module
	for _, m := range s.Modules {
		if m.ID != 0 && len(m.Tests) > 0 {
			cores = append(cores, m)
		}
	}
	return cores
}

// Validate checks structural invariants: unique non-negative module IDs,
// non-negative terminal and pattern counts, and positive scan chain
// lengths. It returns the first violation found.
func (s *SOC) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("itc02: SOC has no name")
	}
	seen := make(map[int]bool, len(s.Modules))
	for _, m := range s.Modules {
		if m == nil {
			return fmt.Errorf("itc02: %s: nil module", s.Name)
		}
		if m.ID < 0 {
			return fmt.Errorf("itc02: %s: module %q has negative ID %d", s.Name, m.Name, m.ID)
		}
		if seen[m.ID] {
			return fmt.Errorf("itc02: %s: duplicate module ID %d", s.Name, m.ID)
		}
		seen[m.ID] = true
		if err := m.Validate(); err != nil {
			return fmt.Errorf("itc02: %s: %w", s.Name, err)
		}
	}
	return nil
}

// Validate checks the module's own invariants.
func (m *Module) Validate() error {
	if m.Inputs < 0 || m.Outputs < 0 || m.Bidirs < 0 {
		return fmt.Errorf("module %d (%s): negative terminal count", m.ID, m.Name)
	}
	for i, l := range m.Scan {
		if l <= 0 {
			return fmt.Errorf("module %d (%s): scan chain %d has non-positive length %d", m.ID, m.Name, i, l)
		}
	}
	for _, t := range m.Tests {
		if t.Patterns < 0 {
			return fmt.Errorf("module %d (%s): test %d has negative pattern count", m.ID, m.Name, t.ID)
		}
		if t.ScanUse && len(m.Scan) == 0 {
			return fmt.Errorf("module %d (%s): test %d uses scan but module has no scan chains", m.ID, m.Name, t.ID)
		}
	}
	return nil
}

// ScanBits returns the total number of scan flip-flops in the module.
func (m *Module) ScanBits() int {
	total := 0
	for _, l := range m.Scan {
		total += l
	}
	return total
}

// Patterns returns the total pattern count across all tests of the module.
func (m *Module) Patterns() int {
	total := 0
	for _, t := range m.Tests {
		total += t.Patterns
	}
	return total
}

// TestDataVolume approximates the total number of scan-in bits the module
// consumes: (scan bits + input and bidir cells) per pattern. It is the
// quantity used to order cores by test size in scheduling heuristics.
func (m *Module) TestDataVolume() int64 {
	bitsPerPattern := int64(m.ScanBits() + m.Inputs + m.Bidirs)
	return bitsPerPattern * int64(m.Patterns())
}

// SortedScanDescending returns a copy of the scan chain lengths sorted in
// descending order, the canonical order for best-fit-decreasing wrapper
// design.
func (m *Module) SortedScanDescending() []int {
	out := make([]int, len(m.Scan))
	copy(out, m.Scan)
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Clone returns a deep copy of the SOC.
func (s *SOC) Clone() *SOC {
	c := &SOC{Name: s.Name, Modules: make([]*Module, len(s.Modules))}
	for i, m := range s.Modules {
		c.Modules[i] = m.Clone()
	}
	return c
}

// Clone returns a deep copy of the module.
func (m *Module) Clone() *Module {
	c := *m
	c.Scan = append([]int(nil), m.Scan...)
	c.Tests = append([]Test(nil), m.Tests...)
	return &c
}

// String returns a one-line summary, e.g.
// "p93791: 33 modules, 32 cores, 553746 scan bits".
func (s *SOC) String() string {
	bits := 0
	for _, m := range s.Modules {
		bits += m.ScanBits()
	}
	return fmt.Sprintf("%s: %d modules, %d cores, %d scan bits", s.Name, len(s.Modules), len(s.Cores()), bits)
}

// Package analog models the analog cores of a mixed-signal SOC and the
// reconfigurable analog test wrappers that turn them into virtual digital
// cores (Sections 3 and 5 of the paper).
//
// An analog core carries a set of specification-based tests (Table 2 of
// the paper): each test needs a stimulus band, a sampling frequency, a
// number of TAM clock cycles, a digital TAM width, and a data-converter
// resolution. A test wrapper placed around one or more cores must satisfy
// the merged requirements of every test it serves: the ADC-DAC pair is
// sized for the maximum resolution and sampling rate, and the
// encoder/decoder for the widest TAM interface.
//
// Sharing one wrapper between several cores (Figure 2) trades area
// against schedule freedom: the shared cores' tests must be applied
// serially, and analog multiplexing adds a routing overhead
// r = (n-1)·δ for a wrapper serving n cores. The package computes the
// area-overhead cost C_A of equation (1) and the analog test-time lower
// bound LTB used by Table 1 and by the planner's pruning step.
package analog

import (
	"fmt"
)

// Hertz is a frequency in hertz.
type Hertz float64

// Convenience frequency units.
const (
	KHz Hertz = 1e3
	MHz Hertz = 1e6
)

// String renders a frequency the way the paper's tables do (kHz/MHz).
func (f Hertz) String() string {
	switch {
	case f == 0:
		return "DC"
	case f >= MHz:
		return trimZero(fmt.Sprintf("%.4g", float64(f)/1e6)) + "MHz"
	case f >= KHz:
		return trimZero(fmt.Sprintf("%.4g", float64(f)/1e3)) + "kHz"
	}
	return trimZero(fmt.Sprintf("%.4g", float64(f))) + "Hz"
}

func trimZero(s string) string { return s }

// Test is one specification-based analog test (a row of Table 2).
type Test struct {
	Name       string
	FinLow     Hertz // lowest stimulus tone; 0 means DC
	FinHigh    Hertz // highest stimulus tone
	Fsample    Hertz // sampling frequency the converters must sustain
	Cycles     int64 // test length in TAM clock cycles
	TAMWidth   int   // TAM wires needed to stream stimulus/response data
	Resolution int   // converter resolution in bits
}

// Validate reports the first implausible field.
func (t *Test) Validate() error {
	switch {
	case t.Name == "":
		return fmt.Errorf("analog: test has no name")
	case t.Cycles <= 0:
		return fmt.Errorf("analog: test %s: cycles %d <= 0", t.Name, t.Cycles)
	case t.TAMWidth <= 0:
		return fmt.Errorf("analog: test %s: TAM width %d <= 0", t.Name, t.TAMWidth)
	case t.Resolution <= 0 || t.Resolution > 24:
		return fmt.Errorf("analog: test %s: resolution %d out of range", t.Name, t.Resolution)
	case t.FinLow < 0 || t.FinHigh < t.FinLow:
		return fmt.Errorf("analog: test %s: bad stimulus band [%v,%v]", t.Name, t.FinLow, t.FinHigh)
	case t.Fsample <= 0:
		return fmt.Errorf("analog: test %s: sampling frequency %v <= 0", t.Name, t.Fsample)
	}
	return nil
}

// Core is an embedded analog core with its test set.
type Core struct {
	Name  string // short label, e.g. "A"
	Kind  string // descriptive function, e.g. "I-Q transmit"
	Tests []Test
}

// Validate checks the core and all its tests.
func (c *Core) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("analog: core has no name")
	}
	if len(c.Tests) == 0 {
		return fmt.Errorf("analog: core %s has no tests", c.Name)
	}
	for i := range c.Tests {
		if err := c.Tests[i].Validate(); err != nil {
			return fmt.Errorf("core %s: %w", c.Name, err)
		}
	}
	return nil
}

// TotalCycles is the core's test time in TAM clock cycles when its tests
// run back to back (core-test mode only, as in the paper).
func (c *Core) TotalCycles() int64 {
	var total int64
	for i := range c.Tests {
		total += c.Tests[i].Cycles
	}
	return total
}

// Requirements are the data-converter and interface needs a wrapper must
// satisfy; a shared wrapper satisfies the union of its cores' needs.
type Requirements struct {
	Resolution int   // bits
	Fsample    Hertz // fastest sampling rate
	TAMWidth   int   // widest TAM interface
}

// Requirements returns the core's own wrapper requirements: the
// highest resolution, fastest sampling rate and widest TAM interface
// any of its tests needs.
func (c *Core) Requirements() Requirements {
	var r Requirements
	for i := range c.Tests {
		t := &c.Tests[i]
		r.Resolution = max(r.Resolution, t.Resolution)
		r.Fsample = max(r.Fsample, t.Fsample)
		r.TAMWidth = max(r.TAMWidth, t.TAMWidth)
	}
	return r
}

// merge returns the union of the cores' requirements: the sizing rule of
// Section 3 ("the resolution ... is selected to be the maximum of the
// ADC-DAC resolution requirements of all the analog cores sharing the
// wrapper", and likewise encoder/decoder for the largest TAM width).
func merge(cores []*Core) Requirements {
	var req Requirements
	for _, c := range cores {
		r := c.Requirements()
		req.Resolution = max(req.Resolution, r.Resolution)
		req.Fsample = max(req.Fsample, r.Fsample)
		req.TAMWidth = max(req.TAMWidth, r.TAMWidth)
	}
	return req
}

package wrapsim

import (
	"fmt"
	"testing"
)

// The helpers below, test oracles only, implement converter
// characterization through the wrapper's self-test mode (Figure 1):
// the DAC output loops into the ADC, so a digital code ramp measures
// the combined transfer characteristic without touching the core. The
// paper defers data-converter testing to BIST references [16-18] and
// lists "the cost of testing the data converters" as future work;
// this is the natural in-wrapper realization: a full ramp costs 256
// samples × divideRatio TAM cycles on the 8-bit design.

// ConverterProfile is the result of a self-test ramp.
type ConverterProfile struct {
	// Transfer[i] is the code the ADC returned when the DAC was driven
	// with code i (averaged if Repeats > 1 and dithering applies; this
	// behavioural model is deterministic, so a single pass suffices).
	Transfer [256]uint8
	// INL[i] is the loop nonlinearity at code i in LSB: the deviation of
	// Transfer from the ideal straight line through its endpoints.
	INL [256]float64
	// PeakINL is the maximum |INL| over the ramp.
	PeakINL float64
	// Monotone is false if the transfer ever decreases.
	Monotone bool
	// MissingCodes counts output codes never produced by the loop.
	MissingCodes int
	// TestCycles is the TAM cost of the ramp.
	TestCycles int64
}

// SelfTestRamp drives every code through the DAC-ADC loop and
// characterizes the pair. The wrapper must be in self-test mode.
func (w *Wrapper) SelfTestRamp() (*ConverterProfile, error) {
	if w.mode != SelfTest {
		return nil, fmt.Errorf("wrapsim: self-test ramp needs self-test mode, wrapper is in %v", w.mode)
	}
	codes := make([]uint8, 256)
	for i := range codes {
		codes[i] = uint8(i)
	}
	back, err := w.applyCodes(codes, nil)
	if err != nil {
		return nil, err
	}
	p := &ConverterProfile{Monotone: true, TestCycles: w.TestCycles(len(codes))}
	copy(p.Transfer[:], back)

	// Endpoint-fit line: ideal transfer from code 0's reading to code
	// 255's reading.
	lo, hi := float64(p.Transfer[0]), float64(p.Transfer[255])
	slope := (hi - lo) / 255
	seen := [256]bool{}
	for i := 0; i < 256; i++ {
		ideal := lo + slope*float64(i)
		p.INL[i] = float64(p.Transfer[i]) - ideal
		if a := p.INL[i]; a > p.PeakINL {
			p.PeakINL = a
		} else if -a > p.PeakINL {
			p.PeakINL = -a
		}
		if i > 0 && p.Transfer[i] < p.Transfer[i-1] {
			p.Monotone = false
		}
		seen[p.Transfer[i]] = true
	}
	for i := int(p.Transfer[0]); i <= int(p.Transfer[255]); i++ {
		if !seen[i] {
			p.MissingCodes++
		}
	}
	return p, nil
}

// Pass applies simple production limits to a profile: monotone, peak
// INL within maxINL LSB, and no more than maxMissing missing codes.
func (p *ConverterProfile) Pass(maxINL float64, maxMissing int) error {
	if !p.Monotone {
		return fmt.Errorf("wrapsim: converter loop not monotone")
	}
	if p.PeakINL > maxINL {
		return fmt.Errorf("wrapsim: peak INL %.2f LSB exceeds %.2f", p.PeakINL, maxINL)
	}
	if p.MissingCodes > maxMissing {
		return fmt.Errorf("wrapsim: %d missing codes exceed %d", p.MissingCodes, maxMissing)
	}
	return nil
}

func selfTestWrapper(t *testing.T, cfg Config) *Wrapper {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setMode(SelfTest); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSelfTestRampIdealConverters(t *testing.T) {
	cfg := PaperConfig()
	cfg.ADCINL, cfg.DACINL, cfg.ResidueError = 0, 0, 0
	cfg.PathBandwidth = 0
	w := selfTestWrapper(t, cfg)
	p, err := w.SelfTestRamp()
	if err != nil {
		t.Fatal(err)
	}
	// An ideal loop has a small, systematic half-LSB artifact at most.
	if p.PeakINL > 1.0 {
		t.Errorf("ideal loop peak INL = %.2f LSB", p.PeakINL)
	}
	if !p.Monotone {
		t.Error("ideal loop not monotone")
	}
	if p.MissingCodes > 1 {
		t.Errorf("ideal loop missing %d codes", p.MissingCodes)
	}
	if err := p.Pass(1.0, 1); err != nil {
		t.Errorf("ideal converters fail production limits: %v", err)
	}
	if p.TestCycles != 256*29 {
		t.Errorf("ramp cost = %d cycles, want %d", p.TestCycles, 256*29)
	}
}

func TestSelfTestRampDetectsINL(t *testing.T) {
	good := PaperConfig()
	good.PathBandwidth = 0 // a ramp is slow; exclude settling effects
	bad := good
	bad.ADCINL, bad.DACINL = 3.0, 3.0

	pGood, err := selfTestWrapper(t, good).SelfTestRamp()
	if err != nil {
		t.Fatal(err)
	}
	pBad, err := selfTestWrapper(t, bad).SelfTestRamp()
	if err != nil {
		t.Fatal(err)
	}
	if pBad.PeakINL <= pGood.PeakINL {
		t.Errorf("degraded converters not detected: %.2f vs %.2f LSB", pBad.PeakINL, pGood.PeakINL)
	}
	// Production limits for an uncorrected 8-bit loop: ±2 LSB INL and a
	// handful of missing codes. The paper-grade wrapper (0.6 LSB stage
	// INL, peak loop INL ≈ 1) passes; the degraded one must not.
	if err := pGood.Pass(2.0, 8); err != nil {
		t.Errorf("paper wrapper fails self-test limits: %v", err)
	}
	if err := pBad.Pass(2.0, 8); err == nil {
		t.Error("3-LSB-INL wrapper passed a 2 LSB limit")
	}
}

func TestSelfTestRampModeGuard(t *testing.T) {
	w, err := New(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.SelfTestRamp(); err == nil {
		t.Error("ramp allowed outside self-test mode")
	}
	if err := w.setMode(CoreTest); err != nil {
		t.Fatal(err)
	}
	if _, err := w.SelfTestRamp(); err == nil {
		t.Error("ramp allowed in core-test mode")
	}
}

package wrapsim

import (
	"fmt"

	"mixsoc/internal/asim"
)

// Mode is the wrapper's operating mode (Figure 1).
type Mode int

// Wrapper modes.
const (
	// Normal bypasses the test circuitry: the core sees its functional
	// inputs.
	Normal Mode = iota
	// SelfTest loops the DAC into the ADC so the tester can verify the
	// wrapper's own converters.
	SelfTest
	// CoreTest drives the core's analog input from the DAC and captures
	// its output with the ADC, making the analog core a virtual digital
	// core on the TAM.
	CoreTest
)

func (m Mode) String() string {
	switch m {
	case Normal:
		return "normal"
	case SelfTest:
		return "self-test"
	case CoreTest:
		return "core-test"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// analogPath is a behavioural analog core path: it consumes a sampled
// input waveform at sample rate fs and produces the output waveform.
type analogPath func(x []float64, fs float64) []float64

// Config sizes a wrapper instance. The defaults mirror the paper's
// implementation: an 8-bit wrapper on a 4 V supply with a 50 MHz system
// clock, sampling at 50 MHz / 29 ≈ 1.72 MHz.
type Config struct {
	Resolution  int     // converter bits; this implementation is 8
	FullScale   float64 // converter range in volts (supply), e.g. 4.0
	SystemClock float64 // digital TAM clock, Hz
	SampleRate  float64 // requested converter update rate, Hz
	TAMWidth    int     // TAM wires feeding the wrapper registers

	ADCINL       float64 // flash/interstage INL, LSB
	DACINL       float64 // DAC stage INL, LSB
	ResidueError float64 // ADC residue amplifier gain error, fraction

	// PathBandwidth is the -3 dB bandwidth of the wrapper's analog
	// signal path (DAC settling, multiplexer and sample-and-hold), in
	// Hz; 0 disables the model. This is the dominant frequency-dependent
	// wrapper error: it droops the high stimulus tones and pulls the
	// extrapolated cut-off of the core under test downward, which is the
	// direction and rough magnitude of the paper's wrapped-vs-direct
	// discrepancy (61 kHz vs 58 kHz).
	PathBandwidth float64
}

// PaperConfig returns the configuration of the Section 5 experiment.
func PaperConfig() Config {
	return Config{
		Resolution:  8,
		FullScale:   4.0,
		SystemClock: 50e6,
		SampleRate:  1.7e6,
		TAMWidth:    1,
		// Typical mid-grade nonidealities for a low-power 0.5 µm modular
		// design; see EXPERIMENTS.md (Figure 5 discussion).
		ADCINL:        0.6,
		DACINL:        0.6,
		ResidueError:  0.004,
		PathBandwidth: 240e3,
	}
}

// Wrapper is a configured analog test wrapper instance.
type Wrapper struct {
	cfg    Config
	mode   Mode
	adc    *Pipeline8
	dac    *Modular8
	settle *asim.Filter // nil when PathBandwidth is 0
}

// New validates the configuration and builds the wrapper.
func New(cfg Config) (*Wrapper, error) {
	if cfg.Resolution != 8 {
		return nil, fmt.Errorf("wrapsim: this wrapper implementation is 8-bit, got %d", cfg.Resolution)
	}
	if cfg.FullScale <= 0 {
		return nil, fmt.Errorf("wrapsim: full scale %v <= 0", cfg.FullScale)
	}
	if cfg.SystemClock <= 0 || cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("wrapsim: clocks must be positive (system %v, sample %v)", cfg.SystemClock, cfg.SampleRate)
	}
	if cfg.SampleRate > cfg.SystemClock {
		return nil, fmt.Errorf("wrapsim: sample rate %v above system clock %v", cfg.SampleRate, cfg.SystemClock)
	}
	if cfg.TAMWidth < 1 {
		return nil, fmt.Errorf("wrapsim: TAM width %d < 1", cfg.TAMWidth)
	}
	// The registers move Resolution bits per sample over TAMWidth wires:
	// that takes ceil(Resolution/TAMWidth) TAM cycles, which must fit in
	// one divided sample period.
	if cpb := cyclesPerSample(cfg); cpb < transferCycles(cfg) {
		return nil, fmt.Errorf("wrapsim: %d TAM cycles per sample cannot carry %d transfer cycles (%d bits over %d wires)",
			cpb, transferCycles(cfg), cfg.Resolution, cfg.TAMWidth)
	}
	adc, err := newPipeline8(cfg.FullScale, cfg.ADCINL, cfg.ResidueError)
	if err != nil {
		return nil, err
	}
	dac, err := newModular8(cfg.FullScale, cfg.DACINL)
	if err != nil {
		return nil, err
	}
	w := &Wrapper{cfg: cfg, mode: Normal, adc: adc, dac: dac}
	if cfg.PathBandwidth > 0 {
		fs := cfg.SystemClock / float64(cyclesPerSample(cfg))
		if cfg.PathBandwidth >= fs/2 {
			return nil, fmt.Errorf("wrapsim: path bandwidth %v must be below fs/2 = %v", cfg.PathBandwidth, fs/2)
		}
		w.settle, err = asim.ButterworthLowpass(1, cfg.PathBandwidth, fs)
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// reconstruct converts stimulus codes to the analog waveform the core
// actually sees: DAC output filtered by the path-settling pole. The
// settling filter operates on the signal relative to mid-scale so that
// its transient settles around the operating point, not around 0 V.
func (w *Wrapper) reconstruct(codes []uint8) []float64 {
	analog := w.dac.convertAll(codes)
	if w.settle == nil {
		return analog
	}
	mid := w.cfg.FullScale / 2
	w.settle.Reset()
	w.settle.PrimeDC(analog[0] - mid)
	out := make([]float64, len(analog))
	for i, v := range analog {
		out[i] = w.settle.Process(v-mid) + mid
	}
	return out
}

func cyclesPerSample(cfg Config) int {
	return int(cfg.SystemClock / cfg.SampleRate)
}

func transferCycles(cfg Config) int {
	return (cfg.Resolution + cfg.TAMWidth - 1) / cfg.TAMWidth
}

// divideRatio is the integer system-clock divider the test control logic
// programs to approximate the requested sample rate.
func (w *Wrapper) divideRatio() int { return cyclesPerSample(w.cfg) }

// effectiveSampleRate is the sample rate actually produced by the
// divided clock: SystemClock / divideRatio.
func (w *Wrapper) effectiveSampleRate() float64 {
	return w.cfg.SystemClock / float64(w.divideRatio())
}

// TestCycles is the TAM clock cost of streaming n samples through the
// wrapper: one divided sample period per sample. This is how Table 2
// style cycle counts arise from sample counts.
func (w *Wrapper) TestCycles(samples int) int64 {
	return int64(samples) * int64(w.divideRatio())
}

// setMode selects normal, self-test or core-test operation.
func (w *Wrapper) setMode(m Mode) error {
	switch m {
	case Normal, SelfTest, CoreTest:
		w.mode = m
		return nil
	}
	return fmt.Errorf("wrapsim: unknown mode %d", int(m))
}

// Config returns the wrapper's configuration.
func (w *Wrapper) Config() Config { return w.cfg }

// applyCodes runs one capture: the digital stimulus codes stream in over
// the TAM, the DAC reconstructs the analog stimulus, the path under test
// processes it, and the ADC digitizes the response.
//
// In SelfTest mode the path is ignored and the DAC output loops straight
// into the ADC. In CoreTest mode a nil path is an error. Normal mode
// refuses to run captures — the wrapper is transparent then.
func (w *Wrapper) applyCodes(stimulus []uint8, path analogPath) ([]uint8, error) {
	if len(stimulus) == 0 {
		return nil, fmt.Errorf("wrapsim: empty stimulus")
	}
	fs := w.effectiveSampleRate()
	switch w.mode {
	case Normal:
		return nil, fmt.Errorf("wrapsim: wrapper in normal mode; select self-test or core-test")
	case SelfTest:
		return w.adc.convertAll(w.reconstruct(stimulus)), nil
	case CoreTest:
		if path == nil {
			return nil, fmt.Errorf("wrapsim: core-test mode needs an analog path")
		}
		analog := w.reconstruct(stimulus)
		response := path(analog, fs)
		if len(response) != len(analog) {
			return nil, fmt.Errorf("wrapsim: analog path returned %d samples for %d", len(response), len(analog))
		}
		return w.adc.convertAll(response), nil
	}
	return nil, fmt.Errorf("wrapsim: unknown mode %d", int(w.mode))
}

// applyWaveform quantizes a bipolar waveform (volts around the mid-scale
// operating point) to stimulus codes, runs applyCodes, and converts the
// response codes back to a bipolar waveform. It is the convenient entry
// point for spec tests written in terms of analog waveforms.
func (w *Wrapper) applyWaveform(x []float64, path analogPath) ([]float64, error) {
	mid := w.cfg.FullScale / 2
	codes := make([]uint8, len(x))
	clipped := 0
	for i, v := range x {
		u := v + mid
		if u < 0 || u >= w.cfg.FullScale {
			clipped++
		}
		codes[i] = quantizeIdeal(u, w.cfg.FullScale)
	}
	if clipped > len(x)/10 {
		return nil, fmt.Errorf("wrapsim: stimulus clips %d of %d samples; reduce amplitude below ±%v",
			clipped, len(x), mid)
	}
	// The behavioural path operates on bipolar signals; shift around the
	// converters, which are unipolar.
	shifted := func(sig []float64, fs float64) []float64 {
		if path == nil {
			return sig
		}
		bip := make([]float64, len(sig))
		for i, v := range sig {
			bip[i] = v - mid
		}
		out := path(bip, fs)
		uni := make([]float64, len(out))
		for i, v := range out {
			uni[i] = v + mid
		}
		return uni
	}
	respCodes, err := w.applyCodes(codes, shifted)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(respCodes))
	for i, c := range respCodes {
		out[i] = codeToVoltage(c, w.cfg.FullScale) - mid
	}
	return out, nil
}

// wrapperAreaMM2 is the paper's measured test-chip area for the 8-bit
// wrapper in the 0.5 µm process ("its area ... is only 0.02 mm²").
const wrapperAreaMM2 = 0.02

// TestChipAreaMM2 returns the published 0.5 µm test-chip area of the
// 8-bit wrapper.
func TestChipAreaMM2() float64 { return wrapperAreaMM2 }

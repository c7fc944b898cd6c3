package wrapsim

import (
	"fmt"
	"math"

	"mixsoc/internal/asim"
	"mixsoc/internal/dsp"
)

// CutoffExperiment reproduces the Section 5 / Figure 5 demonstration:
// the cut-off frequency test fc applied to analog core A, once directly
// (pure analog stimulus and response) and once through the 8-bit analog
// test wrapper (digital stimulus codes → DAC → core → ADC → digital
// response codes). The cut-off frequency is extrapolated from the
// multi-tone gains in both cases and compared.
type CutoffExperiment struct {
	Tones        []asim.Tone // stimulus tones (bipolar, volts)
	Samples      int         // capture length; the paper uses 4551
	FilterOrder  int         // order of the core's low-pass behaviour
	FilterCutoff float64     // true fc of the core under test, Hz
	Wrapper      Config
}

// PaperCutoffExperiment returns the experiment as the paper runs it:
// a three-tone stimulus ("for the purpose of illustration, we have
// chosen an input with only three frequencies"), 4551 samples at
// 50 MHz / 29 ≈ 1.7 MHz, a 4 V supply, and a low-pass core with a
// cut-off near 60 kHz.
func PaperCutoffExperiment() CutoffExperiment {
	return CutoffExperiment{
		Tones: []asim.Tone{
			{Freq: 20e3, Amp: 0.55},
			{Freq: 60e3, Amp: 0.55, Phase: 2.1},
			{Freq: 120e3, Amp: 0.55, Phase: 4.2},
		},
		Samples:      4551,
		FilterOrder:  2,
		FilterCutoff: 60e3,
		Wrapper:      PaperConfig(),
	}
}

// CutoffResult carries everything Figure 5 shows: the three spectra and
// the two extracted cut-off frequencies.
type CutoffResult struct {
	StimulusSpectrum *dsp.Spectrum // |LPF i/p|: the applied analog test
	DirectSpectrum   *dsp.Spectrum // |LPF o/p|: analog response of the core
	WrappedSpectrum  *dsp.Spectrum // |Wrapper o/p|: response of the wrapped core

	DirectGains  []dsp.GainPoint // per-tone gain, direct measurement
	WrappedGains []dsp.GainPoint // per-tone gain, through the wrapper

	TrueFc       float64 // the core's designed cut-off
	DirectFc     float64 // extrapolated from the direct response
	WrappedFc    float64 // extrapolated from the wrapped response
	ErrorPercent float64 // |WrappedFc - DirectFc| / DirectFc · 100

	SampleRate float64 // effective converter sample rate used
	TestCycles int64   // TAM clock cycles the capture costs
}

// Run executes the experiment.
func (e CutoffExperiment) Run() (*CutoffResult, error) {
	if e.Samples < 16 {
		return nil, fmt.Errorf("wrapsim: cutoff experiment needs >= 16 samples, got %d", e.Samples)
	}
	if len(e.Tones) < 2 {
		return nil, fmt.Errorf("wrapsim: cutoff experiment needs >= 2 tones, got %d", len(e.Tones))
	}
	w, err := New(e.Wrapper)
	if err != nil {
		return nil, err
	}
	if err := w.setMode(CoreTest); err != nil {
		return nil, err
	}
	fs := w.effectiveSampleRate()

	filter, err := asim.ButterworthLowpass(e.FilterOrder, e.FilterCutoff, fs)
	if err != nil {
		return nil, err
	}
	path := analogPath(func(x []float64, fs float64) []float64 {
		return filter.ProcessAll(x)
	})

	stimulus, err := asim.MultiTone(e.Tones, fs, e.Samples)
	if err != nil {
		return nil, err
	}

	// Direct analog measurement.
	directOut := path(stimulus, fs)
	// Wrapped measurement.
	wrappedOut, err := w.applyWaveform(stimulus, path)
	if err != nil {
		return nil, err
	}

	res := &CutoffResult{
		TrueFc:     e.FilterCutoff,
		SampleRate: fs,
		TestCycles: w.TestCycles(e.Samples),
	}
	if res.StimulusSpectrum, err = dsp.NewSpectrum(stimulus, fs, dsp.Hann); err != nil {
		return nil, err
	}
	if res.DirectSpectrum, err = dsp.NewSpectrum(directOut, fs, dsp.Hann); err != nil {
		return nil, err
	}
	if res.WrappedSpectrum, err = dsp.NewSpectrum(wrappedOut, fs, dsp.Hann); err != nil {
		return nil, err
	}

	// Per-tone gains, measured with Goertzel at the exact stimulus
	// frequencies; skip the leading transient of the filter.
	skip := e.Samples / 8
	for _, tone := range e.Tones {
		in, err := dsp.ToneMagnitude(stimulus[skip:], tone.Freq, fs)
		if err != nil {
			return nil, err
		}
		if in == 0 {
			return nil, fmt.Errorf("wrapsim: stimulus tone at %v Hz has zero amplitude", tone.Freq)
		}
		dm, err := dsp.ToneMagnitude(directOut[skip:], tone.Freq, fs)
		if err != nil {
			return nil, err
		}
		wm, err := dsp.ToneMagnitude(wrappedOut[skip:], tone.Freq, fs)
		if err != nil {
			return nil, err
		}
		res.DirectGains = append(res.DirectGains, dsp.GainPoint{Freq: tone.Freq, Gain: dm / in})
		res.WrappedGains = append(res.WrappedGains, dsp.GainPoint{Freq: tone.Freq, Gain: wm / in})
	}

	if res.DirectFc, err = dsp.EstimateCutoff(res.DirectGains, e.FilterOrder); err != nil {
		return nil, err
	}
	if res.WrappedFc, err = dsp.EstimateCutoff(res.WrappedGains, e.FilterOrder); err != nil {
		return nil, err
	}
	if res.DirectFc > 0 {
		res.ErrorPercent = 100 * math.Abs(res.WrappedFc-res.DirectFc) / res.DirectFc
	}
	return res, nil
}

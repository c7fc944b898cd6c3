package wrapsim

import (
	"math"
	"testing"
	"testing/quick"

	"mixsoc/internal/asim"
	"mixsoc/internal/dsp"
)

func TestFlash4Ideal(t *testing.T) {
	f := Flash4{FullScale: 16}
	cases := []struct {
		v    float64
		want uint8
	}{{0, 0}, {0.99, 0}, {1.0, 1}, {7.5, 7}, {15.0, 15}, {15.99, 15}, {100, 15}, {-3, 0}}
	for _, tc := range cases {
		if got := f.convert(tc.v); got != tc.want {
			t.Errorf("Flash4(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestFlash4Monotone(t *testing.T) {
	f := Flash4{FullScale: 4, INL: 0.9}
	prev := uint8(0)
	for v := 0.0; v < 4; v += 0.001 {
		got := f.convert(v)
		if got < prev {
			t.Fatalf("flash not monotone at %v: %d < %d", v, got, prev)
		}
		prev = got
	}
}

func TestDAC4Monotone(t *testing.T) {
	d := DAC4{FullScale: 4, INL: 0.9}
	prev := math.Inf(-1)
	for c := 0; c < 16; c++ {
		v := d.convert(uint8(c))
		if v <= prev {
			t.Fatalf("DAC not monotone at code %d: %v <= %v", c, v, prev)
		}
		prev = v
	}
}

func TestPipeline8IdealTransfer(t *testing.T) {
	adc, err := newPipeline8(4.0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With no INL the pipeline implements a clean 8-bit floor quantizer.
	for code := 0; code < 256; code++ {
		v := (float64(code) + 0.5) * 4.0 / 256
		if got := adc.convert(v); got != uint8(code) {
			t.Fatalf("Pipeline8(%v) = %d, want %d", v, got, code)
		}
	}
	// Clamping.
	if adc.convert(-1) != 0 {
		t.Error("negative input not clamped to 0")
	}
	if adc.convert(99) != 255 {
		t.Error("overrange input not clamped to 255")
	}
}

func TestPipeline8MonotoneWithINL(t *testing.T) {
	adc, err := newPipeline8(4.0, 0.6, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	prev := uint8(0)
	for v := 0.0; v < 4; v += 0.0005 {
		got := adc.convert(v)
		if got < prev && prev-got > 1 {
			t.Fatalf("pipeline grossly non-monotone at %v: %d after %d", v, got, prev)
		}
		if got > prev {
			prev = got
		}
	}
}

func TestModular8IdealMatchesBinary(t *testing.T) {
	dac, err := newModular8(4.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for code := 0; code < 256; code++ {
		want := float64(code) * 4.0 / 256
		if got := dac.convert(uint8(code)); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Modular8(%d) = %v, want %v", code, got, want)
		}
	}
}

func TestConverterRoundTripProperty(t *testing.T) {
	adc, _ := newPipeline8(4.0, 0, 0)
	dac, _ := newModular8(4.0, 0)
	f := func(code uint8) bool {
		// DAC then ADC recovers the code (ideal converters, half-LSB
		// shifted sampling).
		v := dac.convert(code) + 0.5*4.0/256
		return adc.convert(v) == code
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeIdealInverse(t *testing.T) {
	for code := 0; code < 256; code++ {
		v := codeToVoltage(uint8(code), 4.0)
		if got := quantizeIdeal(v, 4.0); got != uint8(code) {
			t.Fatalf("quantizeIdeal(codeToVoltage(%d)) = %d", code, got)
		}
	}
	if quantizeIdeal(-1, 4) != 0 || quantizeIdeal(5, 4) != 255 {
		t.Error("clamping broken")
	}
}

func TestNewWrapperValidation(t *testing.T) {
	good := PaperConfig()
	if _, err := New(good); err != nil {
		t.Fatalf("paper config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Resolution = 10 },
		func(c *Config) { c.FullScale = 0 },
		func(c *Config) { c.SystemClock = 0 },
		func(c *Config) { c.SampleRate = 0 },
		func(c *Config) { c.SampleRate = 100e6 },
		func(c *Config) { c.TAMWidth = 0 },
		// 8 bits over 1 wire needs 8 cycles/sample; 10 MHz at 50 MHz
		// clock leaves only 5.
		func(c *Config) { c.SampleRate = 10e6 },
	}
	for i, mutate := range bad {
		cfg := PaperConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestWrapperClocking(t *testing.T) {
	w, err := New(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := w.divideRatio(); got != 29 {
		t.Errorf("divideRatio = %d, want 29 (50 MHz / 1.7 MHz)", got)
	}
	fs := w.effectiveSampleRate()
	if math.Abs(fs-50e6/29) > 1 {
		t.Errorf("effectiveSampleRate = %v", fs)
	}
	if got := transferCycles(w.cfg); got != 8 {
		t.Errorf("transferCycles = %d, want 8 (8 bits over 1 wire)", got)
	}
	if got := w.TestCycles(4551); got != 4551*29 {
		t.Errorf("TestCycles = %d", got)
	}
	if TestChipAreaMM2() != 0.02 {
		t.Error("paper test chip area constant wrong")
	}
}

func TestModes(t *testing.T) {
	w, err := New(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if w.mode != Normal {
		t.Error("initial mode not normal")
	}
	if _, err := w.applyCodes([]uint8{1, 2, 3}, nil); err == nil {
		t.Error("capture allowed in normal mode")
	}
	if err := w.setMode(SelfTest); err != nil {
		t.Fatal(err)
	}
	if err := w.setMode(Mode(9)); err == nil {
		t.Error("bogus mode accepted")
	}
	for _, m := range []Mode{Normal, SelfTest, CoreTest} {
		if m.String() == "" {
			t.Error("mode String broken")
		}
	}
}

func TestSelfTestLoopback(t *testing.T) {
	w, err := New(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setMode(SelfTest); err != nil {
		t.Fatal(err)
	}
	codes := make([]uint8, 256)
	for i := range codes {
		codes[i] = uint8(i)
	}
	back, err := w.applyCodes(codes, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With the paper's small INL the loopback code error stays within a
	// couple of LSB.
	for i, c := range codes {
		diff := int(back[i]) - int(c)
		if diff < -3 || diff > 3 {
			t.Errorf("self-test code %d came back as %d", c, back[i])
		}
	}
	if _, err := w.applyCodes(nil, nil); err == nil {
		t.Error("empty stimulus accepted")
	}
}

func TestCoreTestNeedsPath(t *testing.T) {
	w, _ := New(PaperConfig())
	if err := w.setMode(CoreTest); err != nil {
		t.Fatal(err)
	}
	if _, err := w.applyCodes([]uint8{1, 2}, nil); err == nil {
		t.Error("core-test without path accepted")
	}
	short := func(x []float64, fs float64) []float64 { return x[:1] }
	if _, err := w.applyCodes([]uint8{1, 2}, short); err == nil {
		t.Error("length-changing path accepted")
	}
}

func TestApplyWaveformClippingGuard(t *testing.T) {
	w, _ := New(PaperConfig())
	if err := w.setMode(SelfTest); err != nil {
		t.Fatal(err)
	}
	huge := make([]float64, 100)
	for i := range huge {
		huge[i] = 10 // way beyond ±2 V
	}
	if _, err := w.applyWaveform(huge, nil); err == nil {
		t.Error("clipping stimulus accepted")
	}
}

func TestWrappedSNRNearIdeal(t *testing.T) {
	// A pure tone through the self-test loop should show SNR in the
	// neighbourhood of the 8-bit ideal (49.9 dB); INL costs a few dB.
	cfg := PaperConfig()
	w, _ := New(cfg)
	if err := w.setMode(SelfTest); err != nil {
		t.Fatal(err)
	}
	fs := w.effectiveSampleRate()
	n := 4096
	tone := 15e3
	x, err := asim.MultiTone([]asim.Tone{{Freq: tone, Amp: 1.8}}, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	y, err := w.applyWaveform(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := dsp.ToneMagnitude(y, tone, fs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sig-1.8)/1.8 > 0.02 {
		t.Errorf("loopback tone amplitude %v, want ~1.8", sig)
	}
}

func TestPaperCutoffExperiment(t *testing.T) {
	res, err := PaperCutoffExperiment().Run()
	if err != nil {
		t.Fatal(err)
	}
	// The direct measurement recovers the true cutoff closely.
	if math.Abs(res.DirectFc-res.TrueFc)/res.TrueFc > 0.05 {
		t.Errorf("direct fc = %v, want within 5%% of %v", res.DirectFc, res.TrueFc)
	}
	// The paper reports ~5% error through the wrapper; allow a band
	// around that but insist the wrapper is usable (not >12%).
	if res.ErrorPercent > 12 {
		t.Errorf("wrapped-vs-direct error = %.2f%%, want < 12%%", res.ErrorPercent)
	}
	if res.ErrorPercent == 0 {
		t.Error("wrapped measurement suspiciously identical to direct")
	}
	t.Logf("fc: true %.1f kHz, direct %.2f kHz, wrapped %.2f kHz, error %.2f%% (paper: 61 vs 58 kHz, ~5%%)",
		res.TrueFc/1e3, res.DirectFc/1e3, res.WrappedFc/1e3, res.ErrorPercent)
	// Spectra exist and the stimulus has its three tones.
	s, peaks := res.StimulusSpectrum, 0
	for k := 1; k < len(s.Mag)-1; k++ {
		if s.Mag[k] >= 0.1 && s.Mag[k] >= s.Mag[k-1] && s.Mag[k] > s.Mag[k+1] {
			peaks++
		}
	}
	if peaks < 3 {
		t.Errorf("stimulus has %d peaks above 0.1, want 3", peaks)
	}
	if res.TestCycles != 4551*29 {
		t.Errorf("TestCycles = %d", res.TestCycles)
	}
}

func TestCutoffExperimentValidation(t *testing.T) {
	e := PaperCutoffExperiment()
	e.Samples = 4
	if _, err := e.Run(); err == nil {
		t.Error("tiny sample count accepted")
	}
	e = PaperCutoffExperiment()
	e.Tones = e.Tones[:1]
	if _, err := e.Run(); err == nil {
		t.Error("single tone accepted")
	}
	e = PaperCutoffExperiment()
	e.Wrapper.TAMWidth = 0
	if _, err := e.Run(); err == nil {
		t.Error("bad wrapper config accepted")
	}
}

func BenchmarkCutoffExperiment(b *testing.B) {
	e := PaperCutoffExperiment()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipeline8(b *testing.B) {
	adc, _ := newPipeline8(4.0, 0.6, 0.004)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adc.convert(float64(i%4000) / 1000)
	}
}

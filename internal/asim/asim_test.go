package asim

import (
	"math"
	"testing"
	"testing/quick"

	"mixsoc/internal/dsp"
)

// Amplifier is a behavioural amplifier stage with the nonidealities that
// the Table 2 tests probe: finite gain, DC offset, third-order
// nonlinearity (IIP3), supply clipping, and slew-rate limiting (SR).
// The zero value is a unity-gain ideal buffer once Gain is set to 1.
type Amplifier struct {
	Gain      float64 // linear gain
	Offset    float64 // output-referred DC offset, volts
	HD3       float64 // cubic coefficient: out += HD3·in³
	ClipLevel float64 // symmetric clipping; 0 disables
	SlewRate  float64 // volts/second; 0 disables

	prev    float64
	started bool
}

// Process amplifies one sample taken at sample rate fs.
func (a *Amplifier) Process(x, fs float64) float64 {
	y := a.Gain*x + a.HD3*x*x*x + a.Offset
	if a.ClipLevel > 0 {
		if y > a.ClipLevel {
			y = a.ClipLevel
		} else if y < -a.ClipLevel {
			y = -a.ClipLevel
		}
	}
	if a.SlewRate > 0 && fs > 0 {
		maxStep := a.SlewRate / fs
		if a.started {
			if y > a.prev+maxStep {
				y = a.prev + maxStep
			} else if y < a.prev-maxStep {
				y = a.prev - maxStep
			}
		}
	}
	a.prev = y
	a.started = true
	return y
}

// ProcessAll amplifies a whole signal (state is reset first).
func (a *Amplifier) ProcessAll(x []float64, fs float64) []float64 {
	a.Reset()
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = a.Process(v, fs)
	}
	return out
}

// Reset clears the slew-limiter state.
func (a *Amplifier) Reset() { a.prev, a.started = 0, false }

// Noise is a deterministic white-noise source (xorshift64), for adding
// controlled converter/reference noise in simulations without pulling in
// global random state.
type Noise struct {
	state uint64
	Amp   float64 // peak amplitude of the uniform noise
}

// NewNoise returns a noise source with the given seed and amplitude.
func NewNoise(seed uint64, amp float64) *Noise {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Noise{state: seed, Amp: amp}
}

// Next returns the next noise sample, uniform in [-Amp, Amp].
func (n *Noise) Next() float64 {
	x := n.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	n.state = x
	// Map to [-1, 1).
	u := float64(x>>11) / float64(1<<53)
	return n.Amp * (2*u - 1)
}

// butterworthGain is the order-n Butterworth magnitude at f for a
// cutoff fc, with unit passband gain.
func butterworthGain(f, fc float64, order int) float64 {
	return 1 / math.Sqrt(1+math.Pow(f/fc, float64(2*order)))
}

// rms returns the root-mean-square value of x.
func rms(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

func TestMultiTone(t *testing.T) {
	tones := []Tone{{Freq: 100, Amp: 1}, {Freq: 300, Amp: 0.5}}
	x, err := MultiTone(tones, 8192, 8192)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := dsp.ToneMagnitude(x, 100, 8192)
	m3, _ := dsp.ToneMagnitude(x, 300, 8192)
	if math.Abs(m1-1) > 0.01 || math.Abs(m3-0.5) > 0.01 {
		t.Errorf("tone magnitudes = %v, %v", m1, m3)
	}
	if _, err := MultiTone(tones, 0, 10); err == nil {
		t.Error("fs=0 accepted")
	}
	if _, err := MultiTone(tones, 100, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := MultiTone([]Tone{{Freq: -1}}, 100, 10); err == nil {
		t.Error("negative frequency accepted")
	}
}

func TestButterworthCutoffGain(t *testing.T) {
	// The -3 dB point must land at fc for several orders, and the
	// measured rolloff must match the analytic Butterworth magnitude.
	fs := 1.7e6
	fc := 60e3
	n := 1 << 15
	for _, order := range []int{1, 2, 4, 5} {
		f, err := ButterworthLowpass(order, fc, fs)
		if err != nil {
			t.Fatal(err)
		}
		for _, probe := range []float64{10e3, 30e3, fc, 120e3, 200e3} {
			x, err := MultiTone([]Tone{{Freq: probe, Amp: 1}}, fs, n)
			if err != nil {
				t.Fatal(err)
			}
			y := f.ProcessAll(x)
			// Skip the transient: measure the second half.
			mag, err := dsp.ToneMagnitude(y[n/2:], probe, fs)
			if err != nil {
				t.Fatal(err)
			}
			want := butterworthGain(probe, fc, order)
			if math.Abs(mag-want) > 0.02 {
				t.Errorf("order %d at %v Hz: gain %v, want %v", order, probe, mag, want)
			}
		}
	}
}

func TestButterworthErrors(t *testing.T) {
	if _, err := ButterworthLowpass(0, 100, 1000); err == nil {
		t.Error("order 0 accepted")
	}
	if _, err := ButterworthLowpass(13, 100, 1000); err == nil {
		t.Error("order 13 accepted")
	}
	if _, err := ButterworthLowpass(2, 600, 1000); err == nil {
		t.Error("cutoff above Nyquist accepted")
	}
	if _, err := ButterworthLowpass(2, 0, 1000); err == nil {
		t.Error("zero cutoff accepted")
	}
}

func TestFilterStability(t *testing.T) {
	// Impulse response of a stable filter decays.
	f, err := ButterworthLowpass(4, 60e3, 1.7e6)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 4096)
	x[0] = 1
	y := f.ProcessAll(x)
	head := rms(y[:1024])
	tail := rms(y[3072:])
	if tail > head/100 {
		t.Errorf("impulse response not decaying: head %v tail %v", head, tail)
	}
}

func TestFilterDCGainProperty(t *testing.T) {
	// Any Butterworth low-pass passes DC with unit gain.
	f := func(orderRaw, fcRaw uint8) bool {
		order := int(orderRaw%6) + 1
		fc := 1e3 + float64(fcRaw)*200
		fs := 1e6
		filt, err := ButterworthLowpass(order, fc, fs)
		if err != nil {
			return false
		}
		x := make([]float64, 8192)
		for i := range x {
			x[i] = 1
		}
		y := filt.ProcessAll(x)
		return math.Abs(y[len(y)-1]-1) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAmplifierGainOffset(t *testing.T) {
	a := &Amplifier{Gain: 2, Offset: 0.1}
	if got := a.Process(0.5, 1e6); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("Process = %v, want 1.1", got)
	}
}

func TestAmplifierClipping(t *testing.T) {
	a := &Amplifier{Gain: 10, ClipLevel: 1}
	if got := a.Process(1, 1e6); got != 1 {
		t.Errorf("clip high = %v", got)
	}
	a.Reset()
	if got := a.Process(-1, 1e6); got != -1 {
		t.Errorf("clip low = %v", got)
	}
}

func TestAmplifierSlewLimiting(t *testing.T) {
	// A step through a slew-limited amp ramps at SR volts/second.
	a := &Amplifier{Gain: 1, SlewRate: 1e6} // 1 V/µs
	fs := 1e7                               // 10 MS/s -> max 0.1 V/sample
	x := make([]float64, 20)
	for i := 1; i < len(x); i++ {
		x[i] = 1 // step at sample 1
	}
	y := a.ProcessAll(x, fs)
	if y[0] != 0 {
		t.Errorf("y[0] = %v", y[0])
	}
	for i := 1; i <= 10; i++ {
		want := 0.1 * float64(i)
		if math.Abs(y[i]-want) > 1e-9 {
			t.Errorf("y[%d] = %v, want %v (slew ramp)", i, y[i], want)
		}
	}
	if math.Abs(y[15]-1) > 1e-9 {
		t.Errorf("y[15] = %v, want settled 1", y[15])
	}
}

func TestAmplifierHD3ProducesThirdHarmonic(t *testing.T) {
	fs := 65536.0
	n := 8192
	x, err := MultiTone([]Tone{{Freq: 1024, Amp: 1}}, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	a := &Amplifier{Gain: 1, HD3: 0.04}
	y := a.ProcessAll(x, fs)
	fund, err := dsp.ToneMagnitude(y, 1024, fs)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := dsp.ToneMagnitude(y, 3072, fs)
	if err != nil {
		t.Fatal(err)
	}
	// cos³ puts HD3/4 at the third harmonic: 0.01 -> about -40 dB
	// relative to the (slightly grown) fundamental.
	if hd3 := 20 * math.Log10(h3/fund); hd3 > -35 || hd3 < -45 {
		t.Errorf("HD3 = %v dB, want around -40", hd3)
	}
}

func TestNoiseDeterministicBounded(t *testing.T) {
	n1 := NewNoise(42, 0.5)
	n2 := NewNoise(42, 0.5)
	for i := 0; i < 1000; i++ {
		v1, v2 := n1.Next(), n2.Next()
		if v1 != v2 {
			t.Fatal("noise not deterministic")
		}
		if v1 < -0.5 || v1 > 0.5 {
			t.Fatalf("noise sample %v out of bounds", v1)
		}
	}
	// Zero seed is replaced, not propagated.
	nz := NewNoise(0, 1)
	if nz.Next() == 0 && nz.Next() == 0 {
		t.Error("zero seed produced zero stream")
	}
}

func TestBiquadReset(t *testing.T) {
	f, err := ButterworthLowpass(2, 60e3, 1.7e6)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 0.5, -0.25, 0.75}
	y1 := f.ProcessAll(x)
	y2 := f.ProcessAll(x)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("ProcessAll is not stateless across calls (Reset broken)")
		}
	}
}

func BenchmarkButterworth4Order4551(b *testing.B) {
	f, err := ButterworthLowpass(4, 60e3, 1.7e6)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 4551)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ProcessAll(x)
	}
}

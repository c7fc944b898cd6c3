package dsp

import (
	"math"
	"math/cmplx"
	"sort"
	"testing"
	"testing/quick"
)

// FFT returns the discrete Fourier transform of x. The input is not
// modified. Power-of-two lengths use an iterative radix-2 kernel; other
// lengths use Bluestein's chirp-z algorithm, which reduces to three
// power-of-two FFTs. Lengths 0 and 1 are returned as copies.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, false)
	return out
}

// IFFT returns the inverse DFT of x, scaled by 1/n so that
// IFFT(FFT(x)) == x.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, true)
	n := float64(len(out))
	if n > 0 {
		for i := range out {
			out[i] /= complex(n, 0)
		}
	}
	return out
}

// GainAt evaluates the order-n Butterworth magnitude model at f for a
// cutoff fc, with unit passband gain. It is the model EstimateCutoff
// fits.
func GainAt(f, fc float64, order int) float64 {
	return 1 / math.Sqrt(1+math.Pow(f/fc, float64(2*order)))
}

// BinAt returns the index of the bin whose center is closest to freq.
func (s *Spectrum) BinAt(freq float64) int {
	if len(s.Freq) == 0 {
		return 0
	}
	step := s.Fs / float64(2*(len(s.Freq)-1))
	if step <= 0 {
		return 0
	}
	k := int(freq/step + 0.5)
	if k < 0 {
		k = 0
	}
	if k >= len(s.Freq) {
		k = len(s.Freq) - 1
	}
	return k
}

// Peak is a local spectral maximum.
type Peak struct {
	Freq float64
	Mag  float64
}

// Peaks returns the count highest local maxima above the given linear
// magnitude floor, sorted by descending magnitude.
func (s *Spectrum) Peaks(count int, floor float64) []Peak {
	var peaks []Peak
	for k := 1; k < len(s.Mag)-1; k++ {
		if s.Mag[k] >= floor && s.Mag[k] >= s.Mag[k-1] && s.Mag[k] > s.Mag[k+1] {
			peaks = append(peaks, Peak{Freq: s.Freq[k], Mag: s.Mag[k]})
		}
	}
	sort.Slice(peaks, func(a, b int) bool {
		if peaks[a].Mag != peaks[b].Mag {
			return peaks[a].Mag > peaks[b].Mag
		}
		return peaks[a].Freq < peaks[b].Freq
	})
	if len(peaks) > count {
		peaks = peaks[:count]
	}
	return peaks
}

// RMS returns the root-mean-square value of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFFTKnownValues(t *testing.T) {
	// DFT of [1,0,0,0] is [1,1,1,1].
	x := []complex128{1, 0, 0, 0}
	got := FFT(x)
	for i, v := range got {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
	// DFT of a constant is an impulse at DC.
	x = []complex128{2, 2, 2, 2}
	got = FFT(x)
	if cmplx.Abs(got[0]-8) > 1e-12 {
		t.Errorf("DC bin = %v, want 8", got[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(got[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, got[i])
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 12, 16, 31, 37, 64, 100} {
		x := make([]complex128, n)
		for i := range x {
			// Deterministic pseudo-random-ish values.
			x[i] = complex(math.Sin(float64(3*i+1)), math.Cos(float64(7*i+2)))
		}
		got := FFT(x)
		for k := 0; k < n; k++ {
			var want complex128
			for j := 0; j < n; j++ {
				ang := -2 * math.Pi * float64(k*j) / float64(n)
				want += x[j] * cmplx.Rect(1, ang)
			}
			if cmplx.Abs(got[k]-want) > 1e-8*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want)
			}
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(re, im []float64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		x := make([]complex128, n)
		for i := range x {
			var r, m float64
			if i < len(re) {
				r = math.Mod(re[i], 1000)
				if math.IsNaN(r) || math.IsInf(r, 0) {
					r = 1
				}
			}
			if i < len(im) {
				m = math.Mod(im[i], 1000)
				if math.IsNaN(m) || math.IsInf(m, 0) {
					m = 1
				}
			}
			x[i] = complex(r, m)
		}
		back := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-6*(1+cmplx.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParseval(t *testing.T) {
	// Energy conservation for the paper's sample count (4551, non power
	// of two, exercises Bluestein).
	n := 4551
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		v := math.Sin(2*math.Pi*0.013*float64(i)) + 0.3*math.Cos(2*math.Pi*0.17*float64(i))
		x[i] = complex(v, 0)
		timeEnergy += v * v
	}
	bins := FFT(x)
	var freqEnergy float64
	for _, b := range bins {
		freqEnergy += real(b)*real(b) + imag(b)*imag(b)
	}
	freqEnergy /= float64(n)
	if !almostEqual(timeEnergy, freqEnergy, 1e-6*timeEnergy) {
		t.Errorf("Parseval violated: time %v vs freq %v", timeEnergy, freqEnergy)
	}
}

func TestGoertzelMeasuresTone(t *testing.T) {
	fs := 1.7e6
	n := 4551
	f0 := 60e3
	x := make([]float64, n)
	for i := range x {
		x[i] = 1.25 * math.Cos(2*math.Pi*f0*float64(i)/fs)
	}
	mag, err := ToneMagnitude(x, f0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mag, 1.25, 0.01) {
		t.Errorf("tone magnitude = %v, want 1.25", mag)
	}
	// A frequency far from the tone reads near zero.
	m2, err := ToneMagnitude(x, 400e3, fs)
	if err != nil {
		t.Fatal(err)
	}
	if m2 > 0.02 {
		t.Errorf("off-tone magnitude = %v, want ~0", m2)
	}
	if _, err := goertzel(x, -1, fs); err == nil {
		t.Error("negative frequency accepted")
	}
	if _, err := goertzel(x, fs, fs); err == nil {
		t.Error("frequency above Nyquist accepted")
	}
	if _, err := goertzel(nil, 0, fs); err == nil {
		t.Error("empty signal accepted")
	}
	if _, err := goertzel(x, 1000, 0); err == nil {
		t.Error("zero fs accepted")
	}
}

func TestSpectrumToneAmplitude(t *testing.T) {
	fs := 1024.0
	n := 1024
	x := make([]float64, n)
	for i := range x {
		// Exact-bin tone at 128 Hz, amplitude 0.7.
		x[i] = 0.7 * math.Cos(2*math.Pi*128*float64(i)/fs)
	}
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		s, err := NewSpectrum(x, fs, w)
		if err != nil {
			t.Fatal(err)
		}
		k := s.BinAt(128)
		if s.Freq[k] != 128 {
			t.Errorf("%v: BinAt(128) -> %v Hz", w, s.Freq[k])
		}
		if !almostEqual(s.Mag[k], 0.7, 0.02) {
			t.Errorf("%v: tone amplitude = %v, want 0.7", w, s.Mag[k])
		}
	}
}

func TestSpectrumPeaks(t *testing.T) {
	fs := 2048.0
	n := 2048
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Cos(2*math.Pi*100*ti) + 0.5*math.Cos(2*math.Pi*300*ti) + 0.25*math.Cos(2*math.Pi*500*ti)
	}
	s, err := NewSpectrum(x, fs, Hann)
	if err != nil {
		t.Fatal(err)
	}
	peaks := s.Peaks(3, 0.05)
	if len(peaks) != 3 {
		t.Fatalf("peaks = %v", peaks)
	}
	wantFreqs := []float64{100, 300, 500}
	for i, p := range peaks {
		if math.Abs(p.Freq-wantFreqs[i]) > 2 {
			t.Errorf("peak %d at %v Hz, want %v", i, p.Freq, wantFreqs[i])
		}
	}
}

func TestSpectrumErrors(t *testing.T) {
	if _, err := NewSpectrum(nil, 100, Hann); err == nil {
		t.Error("empty signal accepted")
	}
	if _, err := NewSpectrum([]float64{1, 2}, 0, Hann); err == nil {
		t.Error("zero fs accepted")
	}
}

func TestAmplitudeDBFloor(t *testing.T) {
	if got := amplitudeDB(0); got != -200 {
		t.Errorf("amplitudeDB(0) = %v", got)
	}
	if got := amplitudeDB(1); got != 0 {
		t.Errorf("amplitudeDB(1) = %v", got)
	}
	if got := amplitudeDB(10); !almostEqual(got, 20, 1e-12) {
		t.Errorf("amplitudeDB(10) = %v", got)
	}
}

func TestEstimateCutoffExact(t *testing.T) {
	// Synthetic measurements straight from the model recover fc.
	for _, order := range []int{1, 2, 4} {
		fc := 61e3
		var pts []GainPoint
		for _, f := range []float64{10e3, 30e3, 60e3, 120e3, 200e3} {
			pts = append(pts, GainPoint{Freq: f, Gain: 0.9 * GainAt(f, fc, order)})
		}
		got, err := EstimateCutoff(pts, order)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-fc)/fc > 0.001 {
			t.Errorf("order %d: fc = %v, want %v", order, got, fc)
		}
	}
}

func TestEstimateCutoffNoisy(t *testing.T) {
	// 2% gain errors should move the estimate only a few percent.
	fc := 58e3
	pts := []GainPoint{
		{Freq: 20e3, Gain: 1.02 * GainAt(20e3, fc, 2)},
		{Freq: 60e3, Gain: 0.98 * GainAt(60e3, fc, 2)},
		{Freq: 120e3, Gain: 1.01 * GainAt(120e3, fc, 2)},
	}
	got, err := EstimateCutoff(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-fc)/fc > 0.08 {
		t.Errorf("fc = %v, want within 8%% of %v", got, fc)
	}
}

func TestEstimateCutoffErrors(t *testing.T) {
	if _, err := EstimateCutoff(nil, 2); err == nil {
		t.Error("no points accepted")
	}
	if _, err := EstimateCutoff([]GainPoint{{1, 1}}, 2); err == nil {
		t.Error("single point accepted")
	}
	if _, err := EstimateCutoff([]GainPoint{{1, 1}, {2, 0.5}}, 0); err == nil {
		t.Error("order 0 accepted")
	}
	if _, err := EstimateCutoff([]GainPoint{{0, 1}, {2, 0.5}}, 2); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := EstimateCutoff([]GainPoint{{1, -1}, {2, 0.5}}, 2); err == nil {
		t.Error("negative gain accepted")
	}
}

func TestWindowsNormalized(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman} {
		c := w.coefficients(128)
		if len(c) != 128 {
			t.Fatalf("%v: %d coefficients", w, len(c))
		}
		for _, v := range c {
			if v < -1e-12 || v > 1+1e-12 {
				t.Errorf("%v: coefficient %v out of [0,1]", w, v)
			}
		}
		if w.coefficients(1)[0] != 1 {
			t.Errorf("%v: single coefficient should be 1", w)
		}
	}
	if Rectangular.String() == "" || Window(99).String() == "" {
		t.Error("window String broken")
	}
}

func TestRMS(t *testing.T) {
	if got := RMS(nil); got != 0 {
		t.Errorf("RMS(nil) = %v", got)
	}
	x := make([]float64, 10000)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 100)
	}
	if !almostEqual(RMS(x), 1/math.Sqrt2, 1e-3) {
		t.Errorf("RMS(sin) = %v, want %v", RMS(x), 1/math.Sqrt2)
	}
}

func BenchmarkFFT4551(b *testing.B) {
	x := make([]complex128, 4551)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFT4096(b *testing.B) {
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkGoertzel4551(b *testing.B) {
	x := make([]float64, 4551)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := goertzel(x, 60e3, 1.7e6); err != nil {
			b.Fatal(err)
		}
	}
}

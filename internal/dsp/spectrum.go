package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Window is a window function identified by name.
type Window int

// Supported windows.
const (
	Rectangular Window = iota
	Hann
	Hamming
	Blackman
)

func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	}
	return fmt.Sprintf("Window(%d)", int(w))
}

// coefficients returns the n window coefficients.
func (w Window) coefficients(n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = 1
		return out
	}
	for i := range out {
		x := 2 * math.Pi * float64(i) / float64(n-1)
		switch w {
		case Hann:
			out[i] = 0.5 * (1 - math.Cos(x))
		case Hamming:
			out[i] = 0.54 - 0.46*math.Cos(x)
		case Blackman:
			out[i] = 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
		default:
			out[i] = 1
		}
	}
	return out
}

// coherentGain is the mean of the window, which scales tone amplitudes.
func coherentGain(coeffs []float64) float64 {
	s := 0.0
	for _, c := range coeffs {
		s += c
	}
	return s / float64(len(coeffs))
}

// Spectrum is a single-sided magnitude spectrum of a real signal.
type Spectrum struct {
	Fs   float64   // sample rate, Hz
	Freq []float64 // bin center frequencies, Hz (0 .. fs/2)
	Mag  []float64 // linear amplitude estimate per bin
}

// NewSpectrum computes the single-sided amplitude spectrum of x using
// the given window. Amplitudes are corrected for the window's coherent
// gain, so an A·cos tone on an exact bin reads ≈ A.
func NewSpectrum(x []float64, fs float64, w Window) (*Spectrum, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("dsp: empty signal")
	}
	if fs <= 0 {
		return nil, fmt.Errorf("dsp: sample rate %v <= 0", fs)
	}
	n := len(x)
	coeffs := w.coefficients(n)
	cg := coherentGain(coeffs)
	windowed := make([]float64, n)
	for i, v := range x {
		windowed[i] = v * coeffs[i]
	}
	bins := fftReal(windowed)
	half := n/2 + 1
	s := &Spectrum{Fs: fs, Freq: make([]float64, half), Mag: make([]float64, half)}
	for k := 0; k < half; k++ {
		s.Freq[k] = float64(k) * fs / float64(n)
		scale := 2.0
		if k == 0 || (n%2 == 0 && k == n/2) {
			scale = 1.0
		}
		s.Mag[k] = scale * cmplx.Abs(bins[k]) / (float64(n) * cg)
	}
	return s, nil
}

// MagDB returns the magnitude of bin k in dB relative to unit amplitude,
// flooring at -200 dB.
func (s *Spectrum) MagDB(k int) float64 { return amplitudeDB(s.Mag[k]) }

// amplitudeDB converts a linear amplitude to dB with a -200 dB floor.
func amplitudeDB(a float64) float64 {
	if a <= 1e-10 {
		return -200
	}
	return 20 * math.Log10(a)
}

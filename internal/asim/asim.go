// Package asim provides small behavioural models of analog signal paths:
// multi-tone sources and Butterworth low-pass filters (biquad cascades
// via the bilinear transform).
//
// The paper demonstrates its analog test wrapper with HSPICE
// transistor-level simulations of a low-pass core (Section 5); this
// package is the behavioural substitute documented in DESIGN.md §2: it
// exercises the same signal path — stimulus, filter, response — with
// controlled, deterministic nonidealities.
package asim

import (
	"fmt"
	"math"
)

// Tone is one sinusoidal component of a stimulus.
type Tone struct {
	Freq  float64 // Hz
	Amp   float64 // peak amplitude
	Phase float64 // radians
}

// MultiTone synthesizes n samples of a sum of tones at sample rate fs.
func MultiTone(tones []Tone, fs float64, n int) ([]float64, error) {
	if fs <= 0 {
		return nil, fmt.Errorf("asim: sample rate %v <= 0", fs)
	}
	if n <= 0 {
		return nil, fmt.Errorf("asim: sample count %d <= 0", n)
	}
	out := make([]float64, n)
	for _, t := range tones {
		if t.Freq < 0 {
			return nil, fmt.Errorf("asim: negative tone frequency %v", t.Freq)
		}
		w := 2 * math.Pi * t.Freq / fs
		for i := range out {
			out[i] += t.Amp * math.Cos(w*float64(i)+t.Phase)
		}
	}
	return out, nil
}

// Biquad is a second-order IIR section in direct form II transposed.
// The zero value is an identity filter only if b0 is set to 1; use the
// designers in this package rather than filling coefficients by hand.
type Biquad struct {
	B0, B1, B2 float64 // numerator
	A1, A2     float64 // denominator (a0 normalized to 1)
	z1, z2     float64 // state
}

// Process filters one sample.
func (q *Biquad) Process(x float64) float64 {
	y := q.B0*x + q.z1
	q.z1 = q.B1*x - q.A1*y + q.z2
	q.z2 = q.B2*x - q.A2*y
	return y
}

// Reset clears the filter state.
func (q *Biquad) Reset() { q.z1, q.z2 = 0, 0 }

// PrimeDC sets the section state to its steady state for a constant
// input x, so that processing a stream that starts at x produces no
// artificial start-up transient.
func (q *Biquad) PrimeDC(x float64) float64 {
	g := (q.B0 + q.B1 + q.B2) / (1 + q.A1 + q.A2)
	y := g * x
	q.z1 = y - q.B0*x
	q.z2 = q.B2*x - q.A2*y
	return y
}

// Filter is a cascade of biquad sections (an odd-order design embeds its
// first-order section as a biquad with B2 = A2 = 0).
type Filter struct {
	Sections []Biquad
}

// Process filters one sample through the cascade.
func (f *Filter) Process(x float64) float64 {
	for i := range f.Sections {
		x = f.Sections[i].Process(x)
	}
	return x
}

// ProcessAll filters a whole signal (state is reset first).
func (f *Filter) ProcessAll(x []float64) []float64 {
	f.Reset()
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = f.Process(v)
	}
	return out
}

// Reset clears all section states.
func (f *Filter) Reset() {
	for i := range f.Sections {
		f.Sections[i].Reset()
	}
}

// PrimeDC sets the cascade to its steady state for a constant input x.
func (f *Filter) PrimeDC(x float64) {
	for i := range f.Sections {
		x = f.Sections[i].PrimeDC(x)
	}
}

// ButterworthLowpass designs an order-n Butterworth low-pass filter with
// -3 dB cutoff fc at sample rate fs, using the matched analog prototype
// and the bilinear transform with frequency prewarping.
func ButterworthLowpass(order int, fc, fs float64) (*Filter, error) {
	if order < 1 || order > 12 {
		return nil, fmt.Errorf("asim: butterworth order %d out of [1,12]", order)
	}
	if fc <= 0 || fs <= 0 || fc >= fs/2 {
		return nil, fmt.Errorf("asim: cutoff %v must be in (0, fs/2=%v)", fc, fs/2)
	}
	// Prewarped analog cutoff.
	k := 2 * fs
	wc := k * math.Tan(math.Pi*fc/fs)

	f := &Filter{}
	// Conjugate pole pairs of the analog prototype.
	for i := 0; i < order/2; i++ {
		theta := math.Pi * float64(2*i+1) / float64(2*order)
		// Analog section: wc^2 / (s^2 + 2 sin(theta) wc s + wc^2).
		a1 := 2 * math.Sin(theta) * wc
		a2 := wc * wc
		// Bilinear transform with s = k (1-z^-1)/(1+z^-1).
		d0 := k*k + a1*k + a2
		f.Sections = append(f.Sections, Biquad{
			B0: a2 / d0,
			B1: 2 * a2 / d0,
			B2: a2 / d0,
			A1: (2*a2 - 2*k*k) / d0,
			A2: (k*k - a1*k + a2) / d0,
		})
	}
	if order%2 == 1 {
		// First-order section: wc / (s + wc).
		d0 := k + wc
		f.Sections = append(f.Sections, Biquad{
			B0: wc / d0,
			B1: wc / d0,
			A1: (wc - k) / d0,
		})
	}
	return f, nil
}

// Package dsp provides the signal-analysis substrate for the analog
// wrapper experiments: discrete Fourier transforms (radix-2 and
// Bluestein, so any length works, including the paper's 4551 samples),
// window functions, magnitude spectra in dB, single-tone measurement via
// the Goertzel algorithm, and low-pass cutoff-frequency
// extrapolation from multi-tone gain measurements (Section 5, Figure 5).
//
// Everything is stdlib-only and deterministic.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// fftReal returns the discrete Fourier transform of a real signal.
// Power-of-two lengths use an iterative radix-2 kernel; other lengths
// use Bluestein's chirp-z algorithm, which reduces to three
// power-of-two FFTs. Lengths 0 and 1 are returned as is.
func fftReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	fftInPlace(c, false)
	return c
}

func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(x, inverse)
		return
	}
	bluestein(x, inverse)
}

// radix2 is the iterative Cooley-Tukey kernel for power-of-two lengths.
func radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// bluestein computes an arbitrary-length DFT as a convolution, using
// radix-2 FFTs of length m ≥ 2n-1.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp: w[k] = exp(sign·iπk²/n). Compute k² mod 2n to avoid the
	// precision loss of huge k² in the angle.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		k2 := int64(k) * int64(k) % int64(2*n)
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(k2)/float64(n))
	}

	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
}

// goertzel measures the DFT coefficient of x at an arbitrary frequency
// (in Hz, given the sample rate fs) without computing the whole
// transform. It returns the complex amplitude normalized so that a pure
// cosine of amplitude A at exactly that frequency yields magnitude ≈ A/2
// times n... more precisely the raw DFT value; use ToneMagnitude for an
// amplitude estimate.
func goertzel(x []float64, freq, fs float64) (complex128, error) {
	if fs <= 0 {
		return 0, fmt.Errorf("dsp: sample rate %v <= 0", fs)
	}
	if freq < 0 || freq > fs/2 {
		return 0, fmt.Errorf("dsp: frequency %v outside [0, fs/2=%v]", freq, fs/2)
	}
	n := len(x)
	if n == 0 {
		return 0, fmt.Errorf("dsp: empty signal")
	}
	w := 2 * math.Pi * freq / fs
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	re := s1 - s2*math.Cos(w)
	im := s2 * math.Sin(w)
	return complex(re, im), nil
}

// ToneMagnitude estimates the amplitude of the tone at freq in x: the
// Goertzel magnitude scaled by 2/n (exact for integer-bin tones, a close
// estimate otherwise).
func ToneMagnitude(x []float64, freq, fs float64) (float64, error) {
	g, err := goertzel(x, freq, fs)
	if err != nil {
		return 0, err
	}
	return 2 * cmplx.Abs(g) / float64(len(x)), nil
}

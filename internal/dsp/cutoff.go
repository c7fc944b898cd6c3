package dsp

import (
	"fmt"
	"math"
)

// GainPoint is one measured tone gain of a filter under test: the ratio
// of output to input amplitude at a stimulus frequency.
type GainPoint struct {
	Freq float64 // Hz
	Gain float64 // linear |H(f)|, relative to passband
}

// EstimateCutoff extrapolates the -3 dB cutoff frequency of a low-pass
// filter from a handful of tone gain measurements, the way the paper's
// fc test works (Section 5: "The frequency spectrum of the resulting
// signal is used to extrapolate the cut-off frequency of the filter").
//
// It fits the Butterworth magnitude model
//
//	|H(f)| = g0 / sqrt(1 + (f/fc)^(2·order))
//
// to the measurements by minimizing squared log-gain error over fc (and
// the passband gain g0), using a dense geometric grid followed by golden
// -section refinement. order is the filter order (≥1); measurements need
// at least one point meaningfully below and one above the cutoff region
// to be informative, but the fit itself only requires two points.
func EstimateCutoff(points []GainPoint, order int) (float64, error) {
	if len(points) < 2 {
		return 0, fmt.Errorf("dsp: cutoff fit needs >= 2 gain points, got %d", len(points))
	}
	if order < 1 {
		return 0, fmt.Errorf("dsp: filter order %d < 1", order)
	}
	var fmin, fmax float64
	for i, p := range points {
		if p.Freq <= 0 || p.Gain <= 0 {
			return 0, fmt.Errorf("dsp: gain point %d not positive: %+v", i, p)
		}
		if fmin == 0 || p.Freq < fmin {
			fmin = p.Freq
		}
		if p.Freq > fmax {
			fmax = p.Freq
		}
	}

	err2 := func(fc float64) float64 {
		// For fixed fc the optimal log g0 is the mean residual.
		var sum float64
		logs := make([]float64, len(points))
		for i, p := range points {
			model := -0.5 * math.Log(1+math.Pow(p.Freq/fc, float64(2*order)))
			logs[i] = math.Log(p.Gain) - model
			sum += logs[i]
		}
		mean := sum / float64(len(points))
		var e float64
		for _, l := range logs {
			d := l - mean
			e += d * d
		}
		return e
	}

	// Grid over a generous range around the measured band.
	lo, hi := fmin/20, fmax*20
	const gridSteps = 400
	bestFc, bestE := lo, math.Inf(1)
	ratio := math.Pow(hi/lo, 1/float64(gridSteps))
	f := lo
	for i := 0; i <= gridSteps; i++ {
		if e := err2(f); e < bestE {
			bestE, bestFc = e, f
		}
		f *= ratio
	}

	// Golden-section refinement around the best grid cell.
	a, b := bestFc/ratio, bestFc*ratio
	const phi = 0.6180339887498949
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	e1, e2 := err2(x1), err2(x2)
	for i := 0; i < 80 && (b-a)/bestFc > 1e-9; i++ {
		if e1 < e2 {
			b, x2, e2 = x2, x1, e1
			x1 = b - phi*(b-a)
			e1 = err2(x1)
		} else {
			a, x1, e1 = x1, x2, e2
			x2 = a + phi*(b-a)
			e2 = err2(x2)
		}
	}
	return (a + b) / 2, nil
}

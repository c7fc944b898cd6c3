package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples a reported tail percentile must
// leave beyond it; fewer and the tail is one or two slow outliers, not a
// percentile. The run prints the count so a short run shows it.
const minTailSamples = 30

// quantile returns the q-quantile of the ascending samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. It returns 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// rank is the 0-based index quantile reads for n samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	return min(max(k, 0), n-1)
}

// tail returns the q-quantile of the ascending samples and how many
// samples lie strictly above its rank — the count the minTailSamples
// rule is checked against.
func tail(sorted []float64, q float64) (value float64, n int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	return sorted[rank(len(sorted), q)], beyond(len(sorted), q)
}

// beyond is how many of n samples lie strictly above the q-quantile's
// rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// median returns the median of xs (the mean of the middle two for an
// even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

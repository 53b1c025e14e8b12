package main

import (
	"sort"

	"repro/internal/metrics"
)

// median returns the median of xs (the mean of the two central values for
// an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	return metrics.Summarize(xs).Median
}

// quartiles returns the first and third quartiles of xs by the same
// exclusive method as Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread is judged by — including its linear
// extrapolation past the ends of very small samples. Fewer than two
// values give the single value (or 0) for both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// perStepMillis converts seconds accumulated over steps into milliseconds
// per step.
func perStepMillis(seconds float64, steps int) float64 {
	if steps <= 0 {
		return 0
	}
	return 1e3 * seconds / float64(steps)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxOverMin is max(xs)/min(xs) for a load-balance view; 1 for fewer than
// two values (a single worker or rank is balanced by definition).
func maxOverMin(xs []int64) float64 {
	if len(xs) < 2 {
		return 1
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return ratio(float64(hi), float64(lo))
}

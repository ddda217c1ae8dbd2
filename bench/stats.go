package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs by
// the same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the spreads this program reports match the ones
// computed from its result files with that function. It needs at least two
// values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// tailRank applies the reporting rule for timing tails: the highest
// percentile with at least ten samples beyond it. It returns that percentile
// in tenths of a percent (876 means p87.6) and the 0-based index of its value
// in the sorted samples. Below 20 samples even the median lacks ten samples
// beyond it; the rule then falls back to the median (pct 500).
func tailRank(n int) (tenths, idx int) {
	if n < 20 {
		return 500, (n - 1) / 2
	}
	tenths = 1000 * (n - 10) / n
	rank := (tenths*n + 999) / 1000 // nearest rank, rounded up
	return tenths, rank - 1
}

// tail returns the tail value of xs under tailRank's rule and the percentile
// it sits at.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	tenths, idx := tailRank(len(xs))
	if len(xs) < 20 {
		return median(xs), 50
	}
	return sorted(xs)[idx], float64(tenths) / 10
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 < p < 1) of xs by the "exclusive"
// method (Hyndman–Fan type 6): position p·(n+1), linear interpolation,
// the two end intervals extrapolated. It is the method Python's
// statistics.quantiles uses by default, so quartiles printed here match
// the ones an outside script computes from the same values; for tails
// use percentile. xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := h - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// median is the 0.5 quantile; for an odd count it is the middle value.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentile returns the p-quantile of xs by the "inclusive" method
// (Hyndman–Fan type 7): position p·(n−1), linear interpolation. Tails
// (p95, p99) use it because it never leaves [min, max]: the exclusive
// method extrapolates past the largest value whenever n < 1/(1−p) − 1,
// which would report a tail faster or slower than any sample. xs need
// not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(n-1)
	j := int(math.Floor(h))
	if j >= n-1 {
		return s[n-1]
	}
	return s[j] + (h-float64(j))*(s[j+1]-s[j])
}

// summary is the distribution of one metric over a set of runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	return summary{Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure bounds are judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must match Python's statistics.quantiles(xs, n=4),
// whose default "exclusive" method outside scripts use on the same
// values.
func TestQuantileMatchesPythonExclusive(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 4, 4}, [3]float64{4, 4, 4}},
	}
	for _, c := range cases {
		for i, p := range []float64{0.25, 0.5, 0.75} {
			if got := quantile(c.xs, p); !near(got, c.want[i]) {
				t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, p, got, c.want[i])
			}
		}
	}
}

func TestPercentilesAndSummary(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 0.95); !near(got, 95.05) {
		t.Errorf("p95 of 1..100 = %v, want 95.05", got)
	}
	if got := percentile(xs, 0.99); !near(got, 99.01) {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
	// A tail of a few samples stays inside them: with six units the
	// exclusive method would extrapolate p95 past the fastest.
	six := []float64{10, 14, 11, 13, 12, 20}
	if got := percentile(six, 0.95); got > 20 || !near(got, 18.5) {
		t.Errorf("p95 of %v = %v, want 18.5 (never past the max 20)", six, got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one value = %v", got)
	}
	if got := percentile(six, 0); got != 10 {
		t.Errorf("p0 of %v = %v, want the min", six, got)
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one value = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values is not NaN")
	}
	s := summarize([]float64{8, 10, 12, 9, 11})
	if s.N != 5 || s.Median != 10 || !near(s.spread(), (11.5-8.5)/10) {
		t.Errorf("summary %+v spread %v", s, s.spread())
	}
	if xs[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
}

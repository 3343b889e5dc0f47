package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4), the
	// computation an outside check applies to the benchmark's runs.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, [3]float64{30, 60, 90}},
	}
	for _, c := range cases {
		got, ok := quartiles(c.xs)
		if !ok {
			t.Fatalf("quartiles(%v) refused", c.xs)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should be refused")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed, so the code must sort
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		p, v  float64
		ok    bool
		label string
	}{
		{19, 0, 0, false, "too few for any tail"},
		{20, 50, 10, true, "exactly ten beyond the median"},
		{39, 50, 20, true, "p75 would leave nine"},
		{40, 75, 30, true, "p75 leaves ten"},
		{99, 75, 75, true, "p90 would leave nine"},
		{100, 90, 90, true, "p90 leaves ten"},
		{200, 95, 190, true, "p95 leaves ten"},
		{1000, 99, 990, true, "p99 leaves ten"},
		{10000, 99.9, 9990, true, "p99.9 leaves ten"},
	}
	for _, c := range cases {
		p, v, ok := tail(seq(c.n))
		if ok != c.ok || (ok && (p != c.p || v != c.v)) {
			t.Errorf("%s: tail(n=%d) = p%v %v %v, want p%v %v %v", c.label, c.n, p, v, ok, c.p, c.v, c.ok)
		}
		if ok {
			if _, beyond := percentile(seq(c.n), p); beyond < minBeyond {
				t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, beyond)
			}
		}
	}
}

func TestSummarizeOmitsUnsupportedTail(t *testing.T) {
	s := summarize(seq(5))
	if s.N != 5 || s.Median != 3 || s.TailP != 0 {
		t.Errorf("summarize(5 samples) = %+v", s)
	}
	s = summarize(seq(100))
	if s.TailP != 90 || s.Tail != 90 {
		t.Errorf("summarize(100 samples) = %+v", s)
	}
}

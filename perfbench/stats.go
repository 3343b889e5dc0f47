package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a tail read from fewer samples than this is one or two outliers, not a
// percentile.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample, or the mean of the two middle samples
// for an even count; NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// by the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), so the spreads this program reports are
// the ones an outside check recomputes. It needs at least two samples.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return q, false
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q, true
}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie strictly beyond its rank.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	// The epsilon keeps float error in p*n/100 (99.9 is not exact) from
	// bumping an integral rank up by one.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted(xs)[rank-1], n - rank
}

// tail returns the highest percentile on tailLadder that leaves at least
// minBeyond samples beyond it; ok is false when even the median does not
// (fewer than 2*minBeyond samples).
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if v, beyond := percentile(xs, p); beyond >= minBeyond {
			return p, v, true
		}
	}
	return 0, math.NaN(), false
}

// summary is a timing's report form: the sample count, the median and
// quartiles, and the highest tail the samples support.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Median: median(xs)}
	if q, ok := quartiles(xs); ok {
		s.Q1, s.Q3 = q[0], q[2]
	}
	if p, v, ok := tail(xs); ok {
		s.TailP, s.Tail = p, v
	}
	return s
}

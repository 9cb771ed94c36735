package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks (the "inclusive" method, which is
// what Python's statistics.quantiles(method="inclusive") computes).
// xs need not be sorted; it is not modified. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.75)
}

// tailLadder is the set of percentiles a tail latency may be reported
// at, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for tail latency: the
// highest percentile on tailLadder that still has at least ten samples
// beyond it. It returns the percentile and its value; ok is false when
// even the median has fewer than ten samples beyond it.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(100-p)/100 >= 10 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

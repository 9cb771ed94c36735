package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{3, 1, 2}, 2, 1.5, 2.5},
		{[]float64{4, 1, 3, 2}, 2.5, 1.75, 3.25},
		// Python: statistics.quantiles([1..10], n=4, method="inclusive")
		// == [3.25, 5.5, 7.75].
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 3.25, 7.75},
	} {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("quantile reordered its input")
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of no samples should be NaN")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestTailPercentile pins the rule: the highest percentile, up to 99,
// with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{10000, 99, true},
		{1000, 99, true},
		{999, 95, true}, // 9.99 samples beyond p99: too few
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{10, 0, false},
	} {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || p != c.p {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.p, c.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d p%v = %v has only %d samples beyond it", c.n, p, v, beyond)
			}
		}
	}
}

func TestTailOrMedian(t *testing.T) {
	if got := tailOrMedian(seq(5)); got != 3 {
		t.Errorf("tailOrMedian of 5 samples = %v, want the median 3", got)
	}
	if got := tailOrMedian(seq(1000)); !near(got, quantile(seq(1000), 0.99)) {
		t.Errorf("tailOrMedian of 1000 samples = %v, want p99", got)
	}
}

func TestPassSeconds(t *testing.T) {
	w := &window{start: time.Unix(0, 0)}
	for i := 1; i <= 7; i++ {
		w.jobs = append(w.jobs, job{end: w.start.Add(time.Duration(i) * time.Second)})
	}
	got := w.passSeconds(3)
	if len(got) != 2 || !near(got[0], 3) || !near(got[1], 3) {
		t.Errorf("passSeconds(3) over 7 completions one second apart = %v, want [3 3]", got)
	}
}

// TestReferenceScale: a piece of the run is scaled by the median of the
// two reference samples on each side of it, so one outlying sample does
// not move it, and the window is clipped at the ends of the run.
func TestReferenceScale(t *testing.T) {
	r := &reference{times: []float64{0.1, 0.2, 0.2, 1.0, 0.2}}
	if got := r.scaleAt(3); !near(got, refNominal/0.2) {
		t.Errorf("scaleAt(3) = %v, want %v (1.0 is an outlier)", got, refNominal/0.2)
	}
	if got := r.scaleAt(1); !near(got, refNominal/0.2) {
		t.Errorf("scaleAt(1) = %v, want %v (samples 0..2)", got, refNominal/0.2)
	}
	if got := r.scaleAt(2); !near(got, refNominal/0.2) {
		t.Errorf("scaleAt(2) = %v, want %v (samples 0..3)", got, refNominal/0.2)
	}
	r.times[2] = 0.3
	if got := r.scaleAt(4); !near(got, refNominal/0.3) {
		t.Errorf("scaleAt(4) = %v, want %v (samples 2..4)", got, refNominal/0.3)
	}
}

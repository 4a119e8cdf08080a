package main

import (
	"math"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1) // 1..1000
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestSummarizeKeepsTenSamplesAboveP99(t *testing.T) {
	for _, n := range []int{1009, 1010, 1100, 5000} {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i) // unsorted input
		}
		l, err := summarize(v)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		count := 0
		for _, x := range v {
			if x > l.P99 {
				count++
			}
		}
		if count != l.Above99 || count < minTail {
			t.Errorf("n=%d: %d samples above p99 %v, reported %d", n, count, l.P99, l.Above99)
		}
		if l.N != n || l.P50 != float64((n+1)/2-1) {
			t.Errorf("n=%d: summary %+v", n, l)
		}
	}
	if _, err := summarize(make([]float64, 999)); err == nil {
		t.Error("a p99 of 999 samples (9 above it) was accepted")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from statistics.quantiles(v, n=4), method "exclusive".
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2.5, 7.25, 1, 9.5}, 1.375, 8.9375},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

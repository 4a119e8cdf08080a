package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie above a reported percentile for
// it to be reported at all: a p99 of 200 samples is its second-largest
// value, which says nothing about the tail.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample: the smallest observed value with at least q·n
// samples at or below it. The result is always an observed value.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// above counts the samples strictly past the nearest-rank q-quantile's
// position in a sample of n.
func above(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// latency summarises one set of latency samples: the median and the p99,
// each with its sample count, refusing a p99 that fewer than minTail
// samples lie above.
type latency struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
	Above99 int     `json:"above_p99"`
}

func summarize(samples []float64) (latency, error) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	l := latency{N: len(s), P50: percentile(s, 0.5), P99: percentile(s, 0.99), Above99: above(len(s), 0.99)}
	if l.Above99 < minTail {
		return l, fmt.Errorf("p99 of %d samples has only %d above it (need %d)", l.N, l.Above99, minTail)
	}
	return l, nil
}

// median is the middle value (mean of the two middle values for an even
// count).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles by the same
// "exclusive" method as Python's statistics.quantiles(v, n=4), which is
// how spreads of whole runs are judged; with fewer than two values both
// are the single value.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method "exclusive", with n=4 cuts; like
		// Python it extrapolates past the ends of very small samples.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread summarises repeated measurements of one metric.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func spreadOf(v []float64) spread {
	q1, q3 := quartiles(v)
	return spread{N: len(v), Median: median(v), Q1: q1, Q3: q3}
}

// spreadBy is the spread of f over xs.
func spreadBy[T any](xs []T, f func(T) float64) spread {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return spreadOf(v)
}

// repeatFor calls pass once, then again for as long as another pass
// that takes as long as the last one still ends within budget.
func repeatFor(budget time.Duration, pass func() (time.Duration, error)) error {
	start := time.Now()
	for {
		last, err := pass()
		if err != nil {
			return err
		}
		if time.Since(start)+last > budget {
			return nil
		}
	}
}

func (s spread) String() string {
	return fmt.Sprintf("median %.4g [q1 %.4g, q3 %.4g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}

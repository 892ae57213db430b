package main

import (
	"math"
	"sort"
)

type metric struct {
	Name  string
	Value float64
	Unit  string
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between order
// statistics (v is copied, not reordered); 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailPercentiles are the candidates of supportedTail, ascending.
var tailPercentiles = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// supportedTail returns the highest candidate percentile, at most want, that
// has at least ten samples beyond it among n: a p95 needs 200 samples, a p99
// 1000. Below 20 samples only the median is left.
func supportedTail(n int, want float64) float64 {
	best := 0.5
	for _, p := range tailPercentiles {
		if p <= want && float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// tail is the latency a "p95" metric reports: the 0.95-quantile when the
// sample supports it, else the highest quantile that does.
func tail(v []float64, want float64) float64 {
	return quantile(v, supportedTail(len(v), want))
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(v, n=4)
// (the "exclusive" method): the number the benchmark's acceptance compares
// with a metric's bound.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), math.Abs(q(2)))
}

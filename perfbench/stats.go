package main

import (
	"math"
	"sort"
)

// pct is a percentile together with the samples behind it.
type pct struct {
	value float64
	n     int
}

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest
// rank, sorting xs in place. An empty xs gives a zero value with n 0.
func percentile(xs []float64, q float64) pct {
	if len(xs) == 0 {
		return pct{}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return pct{value: xs[rank], n: len(xs)}
}

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it — the least a tail percentile should rest on.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// median is the 0.5 nearest-rank percentile's value.
func median(xs []float64) float64 { return percentile(xs, 0.5).value }

package main

import (
	"math"
	"sort"
	"time"
)

// Quantile is one exact nearest-rank order statistic over raw samples:
// Value is the Rank-th smallest of N samples (1-based), so every figure
// the benchmark prints can be traced back to a single observation.
type Quantile struct {
	Value float64 `json:"value"`
	Rank  int     `json:"rank"`
	N     int     `json:"n"`
	// Pct is Rank/N as a percentage, for reading the rank at a glance.
	Pct float64 `json:"pct"`
}

// sortedMillis converts durations to milliseconds, ascending.
func sortedMillis(ds []time.Duration) []float64 {
	out := millis(ds)
	sort.Float64s(out)
	return out
}

// millis converts durations to milliseconds, keeping their order.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// nearestRank returns the q-quantile of ascending xs by the nearest-rank
// rule: the ceil(q·n)-th smallest sample. No interpolation, no buckets.
func nearestRank(xs []float64, q float64) Quantile {
	n := len(xs)
	if n == 0 {
		return Quantile{}
	}
	k := int(math.Ceil(q * float64(n)))
	k = max(1, min(k, n))
	return atRank(xs, k)
}

func atRank(xs []float64, k int) Quantile {
	return Quantile{Value: xs[k-1], Rank: k, N: len(xs), Pct: 100 * float64(k) / float64(len(xs))}
}

// tailRank is the highest nearest-rank percentile that still has at least
// ten samples beyond it (p90 at n = 100). Below 20 samples there is no
// such rank above the median, and the median is returned instead.
func tailRank(xs []float64) Quantile {
	n := len(xs)
	if n == 0 {
		return Quantile{}
	}
	median := nearestRank(xs, 0.5)
	if k := n - 10; k > median.Rank {
		return atRank(xs, k)
	}
	return median
}

// median of unsorted values (a copy is sorted), by nearest rank.
func median(vs []float64) float64 {
	xs := append([]float64(nil), vs...)
	sort.Float64s(xs)
	return nearestRank(xs, 0.5).Value
}

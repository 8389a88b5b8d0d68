package main

import (
	"math"
	"sort"
)

// rank is the 1-based nearest rank of the pct-th percentile among n samples,
// in integer arithmetic so that a sample count on a boundary cannot round
// the wrong way.
func rank(n, pct int) int { return (n*pct + 99) / 100 }

// percentile returns the pct-th percentile (1..100) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, pct int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), pct)-1]
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercent is the highest of p99, p95, p90 and p75 that still has at
// least minBeyond of n samples above it; with too few samples for any of
// them it falls back to the median.
func tailPercent(n int) int {
	for _, pct := range []int{99, 95, 90, 75} {
		if n-rank(n, pct) >= minBeyond {
			return pct
		}
	}
	return 50
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// quartiles computes Q1, median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance driver applies to repeated runs. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

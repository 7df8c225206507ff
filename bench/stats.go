package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 1) of an
// ascending sample: the smallest value with at least p of the sample at
// or below it. An empty sample reads 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	// The epsilon keeps p*n products that are whole in exact arithmetic
	// (0.95*200) from rounding up a rank.
	rank := int(math.Ceil(p*float64(len(asc)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the spread rule in README.md is stated in. Needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one request's luck.
const tailBeyond = 10

// tailPercentile is the percentile a tail metric reports for n samples:
// the highest whole percentile, capped at limit, that still has
// tailBeyond samples beyond it, and never below the median.
func tailPercentile(n int, limit float64) float64 {
	if n <= 0 {
		return 0.5
	}
	p := math.Floor(float64(n-tailBeyond)/float64(n)*100) / 100
	return math.Max(0.5, math.Min(limit, p))
}

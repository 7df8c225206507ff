package metrics

import (
	"fmt"
	"math"
	"time"
)

// Histogram is a fixed-bucket latency histogram: geometric bucket
// bounds starting at a minimum resolution, each bucket growth× wider
// than the last. Observations are O(log buckets), quantiles are read by
// walking the cumulative counts with linear interpolation inside the
// matching bucket. The fixed shape keeps snapshots allocation-free and
// lets independent histograms (per cohort, per sweep point) merge.
type Histogram struct {
	bounds []time.Duration // upper bound of each bucket, ascending
	counts []int64
	total  int64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// NewHistogram builds a histogram whose first bucket spans (0, min] and
// whose buckets grow by growth× per step. Values beyond the last bound
// land in the final bucket.
func NewHistogram(min time.Duration, growth float64, buckets int) *Histogram {
	if min <= 0 || growth <= 1 || buckets < 2 {
		panic(fmt.Sprintf("metrics: bad histogram shape min=%v growth=%v buckets=%d", min, growth, buckets))
	}
	h := &Histogram{
		bounds: make([]time.Duration, buckets),
		counts: make([]int64, buckets),
	}
	b := float64(min)
	for i := range h.bounds {
		h.bounds[i] = time.Duration(b)
		b *= growth
	}
	return h
}

// NewLatencyHistogram is the serving-latency preset shared by
// ServerStats and the traffic harness: 48 buckets from 50µs growing
// 1.5× per step (~3.2 hours at the top), fine enough that p99 error
// stays under the bucket ratio across the TTFT/TPOT range the
// functional engine produces.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(50*time.Microsecond, 1.5, 48)
}

// Observe records one duration. Non-positive values count into the
// first bucket.
func (h *Histogram) Observe(d time.Duration) {
	idx := h.bucket(d)
	h.counts[idx]++
	h.total++
	h.sum += d
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// bucket finds the first bucket whose upper bound covers d.
func (h *Histogram) bucket(d time.Duration) int {
	lo, hi := 0, len(h.bounds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the exact mean of the observations (the sum is tracked
// outside the buckets), or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Max returns the largest observation, 0 when empty.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the p-quantile (p in [0, 1]) with linear
// interpolation inside the covering bucket, clamped to the observed
// min/max so tails never report beyond real data. Empty histograms
// return 0.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo := time.Duration(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := float64(target-cum) / float64(c)
			v := lo + time.Duration(frac*float64(hi-lo))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

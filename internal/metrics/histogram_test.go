package metrics

import (
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	// 1..1000 ms uniformly: quantiles should track p*1000ms within one
	// bucket ratio (1.5x).
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.95, 950 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	} {
		got := h.Quantile(tc.p)
		lo := time.Duration(float64(tc.want) / 1.5)
		hi := time.Duration(float64(tc.want) * 1.5)
		if got < lo || got > hi {
			t.Errorf("p%.0f = %v, want within [%v, %v]", 100*tc.p, got, lo, hi)
		}
	}
	if got, want := h.Mean(), 500500*time.Microsecond; got != want {
		t.Errorf("mean = %v, want %v (exact)", got, want)
	}
	if h.Max() != time.Second {
		t.Errorf("max = %v", h.Max())
	}
}

func TestHistogramQuantileOrderingAndClamp(t *testing.T) {
	h := NewLatencyHistogram()
	for _, d := range []time.Duration{3 * time.Millisecond, 3 * time.Millisecond, 40 * time.Millisecond} {
		h.Observe(d)
	}
	p50, p95, p99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99)
	if p50 > p95 || p95 > p99 {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	// Tails clamp to the observed max, never the bucket bound beyond it.
	if p99 > 40*time.Millisecond {
		t.Errorf("p99 %v beyond observed max", p99)
	}
	if q := h.Quantile(0); q < 3*time.Millisecond {
		t.Errorf("p0 %v below observed min", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Error("empty histogram should read zero")
	}
}

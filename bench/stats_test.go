package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	asc := make([]float64, 200)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 100}, {0.95, 190}, {0.99, 198}, {1, 200}, {0.001, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

// The tail metric reports the highest percentile with at least ten
// samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{320, 0.95}, {200, 0.95}, {199, 0.94}, {120, 0.91}, {45, 0.77}, {30, 0.66}, {20, 0.5}, {11, 0.5}, {0, 0.5}} {
		got := tailPercentile(c.n, 0.95)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: ten samples lie beyond the reported rank.
		if c.n >= 2*tailBeyond {
			rank := int(math.Ceil(got*float64(c.n) - 1e-9))
			if c.n-rank < tailBeyond {
				t.Errorf("n=%d: p%.0f leaves %d samples beyond, want at least %d", c.n, 100*got, c.n-rank, tailBeyond)
			}
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 5 1 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 1 3 2 = %v, want 2.5", got)
	}
	// Values from Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{2, 4, 8}, 2, 8},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

package roofline

import (
	"fmt"
	"math"
)

// Chain is the general n-level Hierarchical Roofline Model of §3.2: a
// memory hierarchy with a processor at every level (level 0 fastest),
// and cross-level bandwidths between adjacent levels. The two-level HRM
// is the n=2 special case; the disk extension (§C) uses n=3
// (GPU <- CPU <- disk).
type Chain struct {
	// Levels are ordered fastest first (GPU, CPU, disk, ...).
	Levels []Level
	// Cross[i] is the bandwidth from level i+1 up to level i, bytes/s.
	Cross []float64
}

// Validate checks the §3.2 monotonicity assumptions (footnote 1).
func (c Chain) Validate() error {
	if len(c.Levels) < 2 {
		return fmt.Errorf("roofline: chain needs >= 2 levels, got %d", len(c.Levels))
	}
	if len(c.Cross) != len(c.Levels)-1 {
		return fmt.Errorf("roofline: chain needs %d cross bandwidths, got %d", len(c.Levels)-1, len(c.Cross))
	}
	for i := 1; i < len(c.Levels); i++ {
		if c.Levels[i].PeakFLOPS > c.Levels[i-1].PeakFLOPS {
			return fmt.Errorf("roofline: level %d faster than level %d (P)", i, i-1)
		}
		if c.Levels[i].MemBandwidth > c.Levels[i-1].MemBandwidth {
			return fmt.Errorf("roofline: level %d faster than level %d (B)", i, i-1)
		}
	}
	for i, b := range c.Cross {
		if b <= 0 {
			return fmt.Errorf("roofline: non-positive cross bandwidth at hop %d", i)
		}
	}
	return nil
}

// PathBandwidth is the effective B^{j,i} of Eq. 6 when data at level j
// streams up to level i through the intermediate hops: pipelined, so
// the slowest hop bounds it.
func (c Chain) PathBandwidth(from, to int) float64 {
	if from <= to {
		return math.Inf(1) // data already at or above the exec level
	}
	b := math.Inf(1)
	for hop := to; hop < from; hop++ {
		b = math.Min(b, c.Cross[hop])
	}
	return b
}

// Attainable generalizes Eq. 7: performance of executing at level exec
// with the op's per-level operational intensities (intensity[i] =
// FLOPs / bytes touched at level i; math.Inf(1) marks levels the op
// does not touch).
func (c Chain) Attainable(exec int, intensity []float64) float64 {
	p := c.Levels[exec].PeakFLOPS
	p = math.Min(p, c.Levels[exec].MemBandwidth*intensity[exec])
	for j := exec + 1; j < len(c.Levels); j++ {
		if math.IsInf(intensity[j], 1) {
			continue
		}
		p = math.Min(p, c.PathBandwidth(j, exec)*intensity[j])
	}
	return p
}

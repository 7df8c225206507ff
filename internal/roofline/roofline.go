// Package roofline implements the classical Roofline Model (§3.1) and
// the paper's Hierarchical Roofline Model (HRM, §3.2): attainable
// performance bounds for computations that execute at one memory level
// while streaming data from another, the turning points P1/P2 (Eqs. 9
// and 10) that mark where offloading stops paying off, and the balance
// point (Eq. 11) the policy optimizer drives the system toward.
//
// Levels follow the paper's convention: level i is the GPU (fast, small)
// and level j is the CPU (slower, large); B^{j,i} is the CPU->GPU link.
package roofline

import (
	"fmt"
	"math"
)

// Level is one memory level with its attached processor (§3.2).
type Level struct {
	Name string
	// PeakFLOPS is P^i_peak in FLOP/s.
	PeakFLOPS float64
	// MemBandwidth is B^i_peak in bytes/s.
	MemBandwidth float64
}

// Roofline is the classical single-level model.
type Roofline struct {
	Level Level
}

// Attainable returns min(P_peak, B_peak * I) — Eqs. 1 and 2.
func (r Roofline) Attainable(intensity float64) float64 {
	return math.Min(r.Level.PeakFLOPS, r.Level.MemBandwidth*intensity)
}

// Ridge returns the critical intensity Ī = P_peak / B_peak (Eq. 3).
func (r Roofline) Ridge() float64 {
	if r.Level.MemBandwidth == 0 {
		return math.Inf(1)
	}
	return r.Level.PeakFLOPS / r.Level.MemBandwidth
}

// HRM is the two-level hierarchical model used throughout the paper:
// computation may run at the Upper level (GPU) streaming from the Lower
// level (CPU), or run directly at the Lower level.
type HRM struct {
	Upper Level // level i (GPU)
	Lower Level // level j (CPU)
	// CrossBandwidth is B^{j,i}_peak, the j->i link in bytes/s.
	CrossBandwidth float64
}

// Op characterizes a computation by its operational intensities at the
// two levels (Def. 3.1): IUpper = FLOPs / bytes touched in upper memory,
// ILower = FLOPs / bytes fetched from lower memory.
type Op struct {
	Name   string
	IUpper float64 // I^i_x
	ILower float64 // I^j_x
}

// AttainableUpper is Eq. 7: performance of running the op on the upper
// level while streaming its lower-level-resident data across the link:
// min(P^i, B^i*I^i, B^{j,i}*I^j).
func (h HRM) AttainableUpper(op Op) float64 {
	return min3(
		h.Upper.PeakFLOPS,
		h.Upper.MemBandwidth*op.IUpper,
		h.CrossBandwidth*op.ILower,
	)
}

// AttainableLower is Eq. 8: performance of running the op where its data
// lives: min(P^j, B^j*I^j).
func (h HRM) AttainableLower(op Op) float64 {
	return math.Min(h.Lower.PeakFLOPS, h.Lower.MemBandwidth*op.ILower)
}

// Best returns the better placement for the op and its performance.
func (h HRM) Best(op Op) (perf float64, onUpper bool) {
	u, l := h.AttainableUpper(op), h.AttainableLower(op)
	if u >= l {
		return u, true
	}
	return l, false
}

// P1 is the first turning point (Eq. 9): the lower-level intensity below
// which transferring data up for computation cannot beat computing in
// place, i.e. where B^{j,i}*I^j crosses min(P^j, B^j*I^j).
//
// For ops whose I^j varies (like the MoE FFN as batch size grows) while
// the lower level is compute-bound, the crossing is at P^j/B^{j,i}.
func (h HRM) P1() float64 {
	if h.CrossBandwidth == 0 {
		return math.Inf(1)
	}
	return h.Lower.PeakFLOPS / h.CrossBandwidth
}

// P1At evaluates Eq. 9 exactly for a given op: Ī^j = min(P^j, B^j·I^j)/B^{j,i}.
func (h HRM) P1At(op Op) float64 {
	if h.CrossBandwidth == 0 {
		return math.Inf(1)
	}
	return math.Min(h.Lower.PeakFLOPS, h.Lower.MemBandwidth*op.ILower) / h.CrossBandwidth
}

// P2At is the second turning point (Eq. 10) for an op with upper-level
// intensity IUpper: Ī^j = min(P^i, B^i·I^i)/B^{j,i} — below it the op is
// bound by the cross-level link; above it, by the upper level itself.
func (h HRM) P2At(iUpper float64) float64 {
	if h.CrossBandwidth == 0 {
		return math.Inf(1)
	}
	return math.Min(h.Upper.PeakFLOPS, h.Upper.MemBandwidth*iUpper) / h.CrossBandwidth
}

// Validate reports an error for non-physical configurations.
func (h HRM) Validate() error {
	if h.Upper.PeakFLOPS <= 0 || h.Lower.PeakFLOPS <= 0 {
		return fmt.Errorf("roofline: non-positive peak FLOPS")
	}
	if h.Upper.MemBandwidth <= 0 || h.Lower.MemBandwidth <= 0 || h.CrossBandwidth <= 0 {
		return fmt.Errorf("roofline: non-positive bandwidth")
	}
	// The paper assumes P^i >= P^j and B^i >= B^j for i above j (§3.2
	// footnote 1).
	if h.Upper.PeakFLOPS < h.Lower.PeakFLOPS {
		return fmt.Errorf("roofline: upper level slower than lower level (P)")
	}
	if h.Upper.MemBandwidth < h.Lower.MemBandwidth {
		return fmt.Errorf("roofline: upper level slower than lower level (B)")
	}
	return nil
}

func min3(a, b, c float64) float64 {
	return math.Min(a, math.Min(b, c))
}

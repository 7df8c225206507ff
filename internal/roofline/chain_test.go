package roofline

import (
	"math"
	"testing"
)

// threeLevel models GPU <- CPU <- NVMe.
func threeLevel() Chain {
	return Chain{
		Levels: []Level{
			{Name: "gpu", PeakFLOPS: 100e12, MemBandwidth: 1000e9},
			{Name: "cpu", PeakFLOPS: 1e12, MemBandwidth: 100e9},
			{Name: "disk", PeakFLOPS: 0, MemBandwidth: 3e9},
		},
		Cross: []float64{10e9, 3e9}, // cpu->gpu, disk->cpu
	}
}

func TestChainValidate(t *testing.T) {
	if err := threeLevel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := threeLevel()
	bad.Levels[2].MemBandwidth = 1e15 // disk faster than CPU
	if bad.Validate() == nil {
		t.Error("inverted hierarchy accepted")
	}
	bad = threeLevel()
	bad.Cross = bad.Cross[:1]
	if bad.Validate() == nil {
		t.Error("missing hop accepted")
	}
	if (Chain{Levels: []Level{{}}}).Validate() == nil {
		t.Error("single level accepted")
	}
}

func TestPathBandwidthIsSlowestHop(t *testing.T) {
	c := threeLevel()
	if got := c.PathBandwidth(1, 0); got != 10e9 {
		t.Errorf("cpu->gpu = %v", got)
	}
	// disk->gpu crosses both hops: bounded by the 3 GB/s disk hop.
	if got := c.PathBandwidth(2, 0); got != 3e9 {
		t.Errorf("disk->gpu = %v", got)
	}
	if !math.IsInf(c.PathBandwidth(0, 1), 1) {
		t.Error("downward path must be unconstrained")
	}
}

func TestChainReducesToHRM(t *testing.T) {
	// A two-level chain must agree with the HRM type exactly.
	c := threeLevel()
	two := Chain{Levels: c.Levels[:2], Cross: c.Cross[:1]}
	h := HRM{Upper: c.Levels[0], Lower: c.Levels[1], CrossBandwidth: c.Cross[0]}
	for _, i := range []float64{0.1, 1, 10, 100, 1e5} {
		op := Op{IUpper: i, ILower: i}
		want := h.AttainableUpper(op)
		got := two.Attainable(0, []float64{i, i})
		if math.Abs(got-want) > 1e-6*want {
			t.Fatalf("at I=%v: chain %v != HRM %v", i, got, want)
		}
	}
}

func TestChainAttainableFromDisk(t *testing.T) {
	c := threeLevel()
	// An op whose data lives on disk is bounded by the disk hop at low
	// intensity regardless of where it executes.
	intensity := []float64{1e9, 1e9, 2} // 2 FLOPs per disk byte
	if got := c.Attainable(0, intensity); got != 6e9 {
		t.Errorf("disk-fed GPU exec = %v, want 6e9", got)
	}
	// At huge disk intensity, the GPU roofs take over.
	intensity = []float64{50, 1e9, 1e9}
	if got := c.Attainable(0, intensity); got != 50*1000e9 {
		t.Errorf("HBM-bound exec = %v", got)
	}
}

func TestBestLevelClimbsWithIntensity(t *testing.T) {
	c := threeLevel()
	// Data on CPU (home=1): low intensity stays on CPU, high moves to GPU.
	low := []float64{5, 5, math.Inf(1)}
	if c.Attainable(0, low) > c.Attainable(1, low) {
		t.Errorf("low-intensity op should stay on CPU: GPU %v > CPU %v", c.Attainable(0, low), c.Attainable(1, low))
	}
	high := []float64{1e4, 1e4, math.Inf(1)}
	if c.Attainable(0, high) <= c.Attainable(1, high) {
		t.Errorf("high-intensity op should move to GPU: GPU %v <= CPU %v", c.Attainable(0, high), c.Attainable(1, high))
	}
}

// At the HRM's first turning point the chain's two placements tie: the
// path roof from the CPU up crosses the in-place roof.
func TestTurningPointMatchesHRMP1(t *testing.T) {
	c := threeLevel()
	h := HRM{Upper: c.Levels[0], Lower: c.Levels[1], CrossBandwidth: c.Cross[0]}
	p1 := h.P1At(Op{IUpper: 7, ILower: 7})
	up := c.Attainable(0, []float64{math.Inf(1), p1, math.Inf(1)})
	inPlace := c.Attainable(1, []float64{7, 7, math.Inf(1)})
	if math.Abs(up-inPlace) > 1e-9*inPlace {
		t.Errorf("at HRM P1 %v moving up attains %v, in place %v", p1, up, inPlace)
	}
}

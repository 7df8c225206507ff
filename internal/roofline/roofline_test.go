package roofline

import (
	"math"
	"testing"
	"testing/quick"

	"moelightning/internal/hardware"
	"moelightning/internal/model"
)

func testHRM() HRM {
	return HRM{
		Upper:          Level{Name: "gpu", PeakFLOPS: 100e12, MemBandwidth: 1000e9},
		Lower:          Level{Name: "cpu", PeakFLOPS: 1e12, MemBandwidth: 100e9},
		CrossBandwidth: 10e9,
	}
}

func TestHRMValidate(t *testing.T) {
	if err := testHRM().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testHRM()
	bad.Upper.PeakFLOPS = 0.5e12 // slower than lower
	if bad.Validate() == nil {
		t.Error("want error for inverted hierarchy")
	}
	bad = testHRM()
	bad.CrossBandwidth = 0
	if bad.Validate() == nil {
		t.Error("want error for zero cross bandwidth")
	}
}

func TestAttainableUpperIsMinOfThreeRoofs(t *testing.T) {
	h := testHRM()
	// Eq. 7: min(P_i, B_i*I_i, B_ji*I_j).
	op := Op{IUpper: 1, ILower: 1}
	if got := h.AttainableUpper(op); got != 10e9 {
		t.Fatalf("link-bound attainable = %v, want 1e10", got)
	}
	op = Op{IUpper: 1, ILower: 1e6}
	if got := h.AttainableUpper(op); got != 1000e9 {
		t.Fatalf("HBM-bound attainable = %v, want 1e12", got)
	}
	op = Op{IUpper: 1e6, ILower: 1e6}
	if got := h.AttainableUpper(op); got != 100e12 {
		t.Fatalf("compute-bound attainable = %v, want 1e14", got)
	}
}

func TestTurningPointOrder(t *testing.T) {
	// P1 < P2 whenever the upper level outruns the lower level at the
	// op's upper intensity (the Fig. 5 geometry).
	h := testHRM()
	iUpper := 50.0 // HBM roof at 50*1000e9 = 5e13 < peak
	p1 := h.P1()
	p2 := h.P2At(iUpper)
	if !(p1 < p2) {
		t.Fatalf("P1 (%v) must be left of P2 (%v)", p1, p2)
	}
	// Below P1: computing in place (lower) beats transferring up.
	op := Op{IUpper: iUpper, ILower: p1 * 0.5}
	perf, onUpper := h.Best(op)
	if onUpper {
		t.Errorf("below P1 the op should stay on the lower level (got upper at %v)", perf)
	}
	// Above P1: transferring up wins.
	op = Op{IUpper: iUpper, ILower: p1 * 4}
	if _, onUpper := h.Best(op); !onUpper {
		t.Error("above P1 the op should move to the upper level")
	}
}

// TestChainReducesToHRM: §3.2's n-level chain at n = 2 is the HRM. Its
// roof for executing at level 0 is min(P^0, B^0 I^0, B^{1,0} I^1) and
// for executing where the data lives min(P^1, B^1 I^1); AttainableUpper
// and AttainableLower must be exactly those.
func TestChainReducesToHRM(t *testing.T) {
	h := testHRM()
	for _, i := range []float64{0.1, 1, 10, 100, 1e5} {
		op := Op{IUpper: i, ILower: i}
		up := math.Min(h.Upper.PeakFLOPS, math.Min(h.Upper.MemBandwidth*i, h.CrossBandwidth*i))
		if got := h.AttainableUpper(op); math.Abs(got-up) > 1e-6*up {
			t.Fatalf("at I=%v: AttainableUpper %v != chain roof %v", i, got, up)
		}
		down := math.Min(h.Lower.PeakFLOPS, h.Lower.MemBandwidth*i)
		if got := h.AttainableLower(op); math.Abs(got-down) > 1e-6*down {
			t.Fatalf("at I=%v: AttainableLower %v != chain roof %v", i, got, down)
		}
	}
}

// TestBestLevelClimbsWithIntensity: an op whose data lives on the CPU
// stays there at low intensity and moves to the GPU at high intensity.
func TestBestLevelClimbsWithIntensity(t *testing.T) {
	h := testHRM()
	if perf, onUpper := h.Best(Op{IUpper: 5, ILower: 5}); onUpper {
		t.Errorf("low-intensity op should stay on CPU, moved up at %v", perf)
	}
	if perf, onUpper := h.Best(Op{IUpper: 1e4, ILower: 1e4}); !onUpper {
		t.Errorf("high-intensity op should move to GPU, stayed at %v", perf)
	}
}

// TestTurningPointMatchesHRMP1: at the first turning point the two
// placements tie. An op whose upper-level traffic is free (I^i = inf)
// and whose lower intensity is P1 attains, moved up, what the op of
// intensity 7 attains in place.
func TestTurningPointMatchesHRMP1(t *testing.T) {
	h := testHRM()
	p1 := h.P1At(Op{IUpper: 7, ILower: 7})
	up := h.AttainableUpper(Op{IUpper: math.Inf(1), ILower: p1})
	inPlace := h.AttainableLower(Op{IUpper: 7, ILower: 7})
	if math.Abs(up-inPlace) > 1e-9*inPlace {
		t.Errorf("at HRM P1 %v moving up attains %v, in place %v", p1, up, inPlace)
	}
}

func TestBalancePoint(t *testing.T) {
	h := testHRM()
	iUpper := 7.0
	iLower := h.P2At(iUpper) // under the upper memory roof, Eq. 10's turning point is Eq. 11's balance
	// Eq. 11: B_i*I_i == B_ji*I_j at the balance point.
	left := h.Upper.MemBandwidth * iUpper
	right := h.CrossBandwidth * iLower
	if math.Abs(left-right) > 1e-6*left {
		t.Fatalf("balance point violated: %v != %v", left, right)
	}
}

func TestCrossBound(t *testing.T) {
	h := testHRM()
	if op := (Op{IUpper: 100, ILower: 1}); h.AttainableUpper(op) != h.CrossBandwidth*op.ILower {
		t.Error("low lower-intensity op must be link-bound")
	}
	if op := (Op{IUpper: 100, ILower: 1e9}); h.AttainableUpper(op) == h.CrossBandwidth*op.ILower {
		t.Error("huge lower-intensity op must not be link-bound")
	}
}

func TestAttainableMonotoneProperty(t *testing.T) {
	h := testHRM()
	f := func(a, b float64) bool {
		ia, ib := math.Abs(a), math.Abs(b)
		if ia > ib {
			ia, ib = ib, ia
		}
		if math.IsNaN(ia) || math.IsInf(ib, 0) {
			return true
		}
		opA := Op{IUpper: ia, ILower: ia}
		opB := Op{IUpper: ib, ILower: ib}
		return h.AttainableUpper(opA) <= h.AttainableUpper(opB)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromSpecL4MatchesFigure3(t *testing.T) {
	h := FromSpec(hardware.S2())
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fig. 3 hierarchy: GPU roofs above CPU roofs above the link.
	if h.CrossBandwidth >= h.Lower.MemBandwidth {
		t.Error("link must be slower than CPU memory")
	}
	if h.Lower.MemBandwidth >= h.Upper.MemBandwidth {
		t.Error("CPU memory must be slower than GPU memory")
	}
}

// TestAttentionBelowP1OnL4 reproduces Fig. 4's conclusion: decode GQA
// attention at context 512, in both f16 and int4, sits left of P1 — it
// is better computed on CPU than shipped to the L4.
func TestAttentionBelowP1OnL4(t *testing.T) {
	h := FromSpec(hardware.S2())
	cfg := model.Mixtral8x7B()
	for _, dt := range []model.DType{model.F16, model.Int4} {
		op := AttentionOp(cfg, 512, dt)
		if op.ILower >= h.P1At(op) {
			t.Errorf("%v attention intensity %.2f not below P1 %.2f", dt, op.ILower, h.P1At(op))
		}
		if _, onUpper := h.Best(op); onUpper {
			t.Errorf("%v attention should run on CPU", dt)
		}
	}
	// Quantization raises intensity (fewer bytes per flop).
	f16 := AttentionOp(cfg, 512, model.F16)
	int4 := AttentionOp(cfg, 512, model.Int4)
	if int4.ILower <= f16.ILower {
		t.Error("int4 KV must have higher operational intensity than f16")
	}
}

// TestFFNCrossesP1WithBatch reproduces Fig. 5: the MoE FFN's lower-level
// intensity grows with batch size, crossing P1 (worth offloading to GPU)
// at moderate N.
func TestFFNCrossesP1WithBatch(t *testing.T) {
	h := FromSpec(hardware.S2())
	cfg := model.Mixtral8x7B()
	small := FFNOp(cfg, 4, 4)
	large := FFNOp(cfg, 4096, 128)
	if small.ILower >= large.ILower {
		t.Fatal("FFN lower intensity must grow with batch")
	}
	if _, onUpper := h.Best(small); onUpper {
		t.Error("tiny-batch FFN should stay on CPU (latency regime)")
	}
	if _, onUpper := h.Best(large); !onUpper {
		t.Error("large-batch FFN should move to GPU")
	}
}

func TestRoofsSeries(t *testing.T) {
	h := testHRM()
	roofs := h.Roofs(0.1, 1000, 16)
	if len(roofs) != 5 {
		t.Fatalf("want 5 roofs, got %d", len(roofs))
	}
	for _, s := range roofs {
		if len(s.Points) != 16 {
			t.Fatalf("%s: %d points", s.Name, len(s.Points))
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Intensity <= s.Points[i-1].Intensity {
				t.Fatalf("%s: intensities not increasing", s.Name)
			}
		}
	}
}

func TestKernelCurveSaturates(t *testing.T) {
	h := testHRM()
	curve := h.KernelCurve(50, 0.1, 1e6, 32)
	last := curve.Points[len(curve.Points)-1].Perf
	want := math.Min(h.Upper.MemBandwidth*50, h.Upper.PeakFLOPS)
	if math.Abs(last-want) > 1e-6*want {
		t.Errorf("kernel curve saturates at %v, want %v", last, want)
	}
}

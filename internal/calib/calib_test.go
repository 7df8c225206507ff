package calib

import (
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"moelightning/internal/hardware"
	"moelightning/internal/model"
	"moelightning/internal/roofline"
)

// handTable is a minimal valid table with known entries.
func handTable() *Table {
	return &Table{
		Schema:            Schema,
		Host:              "test",
		Cores:             1,
		PeakFLOPS:         1e9,
		PeakBandwidth:     1e9,
		ExpertHitRatio:    0.75,
		ScheduleEffDecode: 1,
		Entries: []Entry{
			{Op: "gemm", Tokens: 1, FLOPs: 1, Bytes: 1, Seconds: 1, EffCompute: 0.1, EffBandwidth: 0.4},
			{Op: "gemm", Tokens: 64, FLOPs: 1, Bytes: 1, Seconds: 1, EffCompute: 0.2, EffBandwidth: 0.8},
			{Op: "attend-f32", Tokens: 4, Context: 8, FLOPs: 1, Bytes: 1, Seconds: 1, EffCompute: 0.3, EffBandwidth: 0.3},
			{Op: "attend-f32", Tokens: 4, Context: 32, FLOPs: 1, Bytes: 1, Seconds: 1, EffCompute: 0.5, EffBandwidth: 0.5},
		},
	}
}

func TestTableRoundTrip(t *testing.T) {
	tab := handTable()
	path := filepath.Join(t.TempDir(), "calib.json")
	if err := tab.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.ExpertHitRatio != 0.75 || len(got.Entries) != len(tab.Entries) {
		t.Fatalf("round trip mangled table: %+v", got)
	}
	e := got.Efficiency(roofline.OpGEMM, roofline.Shape{Tokens: 1})
	if e.Compute != 0.1 || e.Bandwidth != 0.4 {
		t.Errorf("exact-bucket lookup after reload = %+v", e)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]func(*Table){
		"wrong schema":  func(t *Table) { t.Schema = "bogus" },
		"no peaks":      func(t *Table) { t.PeakFLOPS = 0 },
		"bad hit ratio": func(t *Table) { t.ExpertHitRatio = 1.5 },
		"empty":         func(t *Table) { t.Entries = nil },
		"bad entry":     func(t *Table) { t.Entries[0].EffCompute = 0 },
	}
	for name, mutate := range cases {
		tab := handTable()
		mutate(tab)
		if err := tab.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed table", name)
		}
	}
}

func TestInterpolationIsLog2LinearAndClamped(t *testing.T) {
	tab := handTable()
	// Midpoint of [1, 64] in log2 space is tokens=8.
	e := tab.Efficiency(roofline.OpFFN, roofline.Shape{Tokens: 8})
	if math.Abs(e.Compute-0.15) > 1e-12 || math.Abs(e.Bandwidth-0.6) > 1e-12 {
		t.Errorf("log2 midpoint = %+v, want {0.15 0.6}", e)
	}
	// Below and above the grid clamp to the end entries.
	lo := tab.Efficiency(roofline.OpPreAttn, roofline.Shape{Tokens: 0})
	hi := tab.Efficiency(roofline.OpPreAttn, roofline.Shape{Tokens: 1024})
	if lo.Compute != 0.1 || hi.Compute != 0.2 {
		t.Errorf("clamping: lo=%+v hi=%+v", lo, hi)
	}
	// Deterministic: repeated queries agree.
	for i := 0; i < 3; i++ {
		if tab.Efficiency(roofline.OpFFN, roofline.Shape{Tokens: 8}) != e {
			t.Fatal("interpolation is not deterministic")
		}
	}
	// Attention buckets key on Context, not Tokens.
	a := tab.Efficiency(roofline.OpAttendF32, roofline.Shape{Tokens: 99, Context: 8})
	if a.Compute != 0.3 {
		t.Errorf("attend bucket keyed wrong: %+v", a)
	}
	// OpCPUAttn with KVInt8 has no entries here and must not borrow the
	// f32 curve.
	i8 := tab.Efficiency(roofline.OpCPUAttn, roofline.Shape{Tokens: 4, Context: 8, KVInt8: true})
	if i8 != roofline.Unity {
		t.Errorf("uncalibrated int8 attend without fallback = %+v, want Unity", i8)
	}
}

// recordingModel counts fallback queries.
type recordingModel struct{ calls int }

func (r *recordingModel) Efficiency(roofline.OpClass, roofline.Shape) roofline.Eff {
	r.calls++
	return roofline.Eff{Compute: 0.42, Bandwidth: 0.42}
}

func TestFallbackForUncalibratedKinds(t *testing.T) {
	tab := handTable()
	rec := &recordingModel{}
	tab.WithFallback(rec)
	// Prefill has no entries: must come from the fallback.
	e := tab.Efficiency(roofline.OpPrefill, roofline.Shape{Tokens: 16})
	if e.Compute != 0.42 || rec.calls != 1 {
		t.Errorf("prefill fallback: eff=%+v calls=%d", e, rec.calls)
	}
	// GEMM is calibrated: the fallback must not be consulted.
	tab.Efficiency(roofline.OpGEMM, roofline.Shape{Tokens: 4})
	if rec.calls != 1 {
		t.Errorf("calibrated kind consulted fallback (calls=%d)", rec.calls)
	}
}

func TestScheduleFactorAppliesToDecodeOnly(t *testing.T) {
	tab := handTable()
	tab.ScheduleEffDecode = 0.5
	tab.Entries = append(tab.Entries,
		Entry{Op: "prefill", Tokens: 64, FLOPs: 1, Bytes: 1, Seconds: 1, EffCompute: 0.6, EffBandwidth: 0.6})
	d := tab.Efficiency(roofline.OpGEMM, roofline.Shape{Tokens: 1})
	if math.Abs(d.Compute-0.05) > 1e-12 {
		t.Errorf("decode-phase gemm not scaled: %+v", d)
	}
	p := tab.Efficiency(roofline.OpPrefill, roofline.Shape{Tokens: 64})
	if p.Compute != 0.6 {
		t.Errorf("prefill scaled by decode factor: %+v", p)
	}
}

// TestCalibratedServeError is the loop-closing regression: build the
// table from live micro-benches, predict the standing scenarios, run
// the real server, and require the calibrated model inside ErrorBand
// on every scenario while the analytic host model is demonstrably
// outside it (its spec-sheet peaks are far above what the kernels
// sustain). Both sides rest on wall-clock windows of tens of
// milliseconds, and `go test ./...` runs other packages on the same
// cores for seconds at a time, so the comparison is between medians
// over calibRounds interleaved build/evaluate rounds — a round whose
// build and evaluation saw different loads moves neither median.
func TestCalibratedServeError(t *testing.T) {
	if testing.Short() {
		t.Skip("live calibration bench")
	}
	m := model.Tiny()
	spec := hardware.Host(runtime.NumCPU())
	scenarios := StandingScenarios()
	if len(scenarios) < 2 {
		t.Fatalf("want >= 2 standing scenarios, got %d", len(scenarios))
	}
	const calibRounds = 5
	type series struct{ measured, calibrated, analytic []float64 }
	runs := make([]series, len(scenarios))
	for round := 0; round < calibRounds; round++ {
		tab, err := Build(BuildConfig{Model: m, Spec: spec, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Validate(); err != nil {
			t.Fatal(err)
		}
		reports, err := Evaluate(tab, m, spec, 7, scenarios)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range reports {
			t.Logf("round %d %s: measured %.1f tok/s, calibrated %.1f (err %.1f%%), analytic %.1f (err %.1f%%)",
				round, r.Name, r.MeasuredTPS, r.CalibratedTPS, 100*r.CalibratedErr, r.AnalyticTPS, 100*r.AnalyticErr)
			runs[i].measured = append(runs[i].measured, r.MeasuredTPS)
			runs[i].calibrated = append(runs[i].calibrated, r.CalibratedTPS)
			runs[i].analytic = append(runs[i].analytic, r.AnalyticTPS)
		}
	}
	median := func(xs []float64) float64 {
		slices.Sort(xs)
		return xs[len(xs)/2]
	}
	for i, sc := range scenarios {
		measured := median(runs[i].measured)
		calibratedErr := relErr(median(runs[i].calibrated), measured)
		analyticErr := relErr(median(runs[i].analytic), measured)
		t.Logf("%s: median measured %.1f tok/s, calibrated err %.1f%%, analytic err %.1f%%",
			sc.Name, measured, 100*calibratedErr, 100*analyticErr)
		if calibratedErr > ErrorBand {
			t.Errorf("%s: calibrated error %.1f%% exceeds the %.0f%% band",
				sc.Name, 100*calibratedErr, 100*ErrorBand)
		}
		if analyticErr <= ErrorBand {
			t.Errorf("%s: analytic error %.1f%% unexpectedly within the band — the calibration demonstration is vacuous",
				sc.Name, 100*analyticErr)
		}
		if analyticErr <= calibratedErr {
			t.Errorf("%s: analytic error %.1f%% not worse than calibrated %.1f%%",
				sc.Name, 100*analyticErr, 100*calibratedErr)
		}
	}
}

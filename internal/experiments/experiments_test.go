package experiments

import (
	"strings"
	"testing"

	"moelightning/internal/perfmodel"
	"moelightning/internal/schedule"
	"moelightning/internal/sim"
	"moelightning/internal/workload"
)

func TestSettingsCoverTable2(t *testing.T) {
	for _, name := range []string{"S1", "S2", "S6", "S7", "S8", "S9"} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Model.Validate(); err != nil {
			t.Errorf("%s model: %v", name, err)
		}
		if err := s.Spec.Validate(); err != nil {
			t.Errorf("%s spec: %v", name, err)
		}
	}
	if _, err := Lookup("S3"); err == nil {
		t.Error("S3 is not a paper setting")
	}
}

// TestFigure7S1Ordering is the headline end-to-end result: on S1
// (Mixtral 8x7B, one T4), MoE-Lightning > MoE-Lightning(p) > FlexGen >
// FlexGen(c) and everything beats DeepSpeed's small-batch baseline,
// with ML(p) at least ~2x FlexGen (paper: 3.2x).
func TestFigure7S1Ordering(t *testing.T) {
	rows, err := Figure7([]string{"S1"}, []int{128})
	if err != nil {
		t.Fatal(err)
	}
	tps := map[string]float64{}
	for _, r := range rows {
		if r.Failed() {
			t.Fatalf("%s failed: %v", r.System, r.Err)
		}
		tps[r.System] = r.TokensPerSecond
	}
	if !(tps["MoE-Lightning"] > tps["MoE-Lightning(p)"]) {
		t.Errorf("unpadded (%v) must beat padded (%v)", tps["MoE-Lightning"], tps["MoE-Lightning(p)"])
	}
	if !(tps["MoE-Lightning(p)"] > 2*tps["FlexGen"]) {
		t.Errorf("ML(p) (%v) must be > 2x FlexGen (%v)", tps["MoE-Lightning(p)"], tps["FlexGen"])
	}
	if !(tps["FlexGen"] > tps["FlexGen(c)"]) {
		t.Errorf("FlexGen (%v) must beat FlexGen(c) (%v) on MTBench", tps["FlexGen"], tps["FlexGen(c)"])
	}
	if !(tps["FlexGen"] > tps["DeepSpeed"]) {
		t.Errorf("FlexGen (%v) must beat DeepSpeed (%v)", tps["FlexGen"], tps["DeepSpeed"])
	}
}

// TestScalingModes reproduces §5.3: FlexGen's pipeline parallelism gains
// ~nothing from 2->4 GPUs, DeepSpeed scales ~linearly, MoE-Lightning's
// tensor parallelism scales super-linearly in the decode stage.
func TestScalingModes(t *testing.T) {
	rows, err := Figure7([]string{"S6", "S7"}, []int{128})
	if err != nil {
		t.Fatal(err)
	}
	tps := map[string]map[string]float64{}
	for _, r := range rows {
		if tps[r.System] == nil {
			tps[r.System] = map[string]float64{}
		}
		if !r.Failed() {
			tps[r.System][r.Setting] = r.TokensPerSecond
		}
	}
	fg := tps["FlexGen"]["S7"] / tps["FlexGen"]["S6"]
	if fg > 1.3 || fg < 0.7 {
		t.Errorf("FlexGen 2->4 GPU scaling = %.2fx, want ~1x (pipeline parallelism stalls)", fg)
	}
	ds := tps["DeepSpeed"]["S7"] / tps["DeepSpeed"]["S6"]
	if ds < 1.8 || ds > 2.2 {
		t.Errorf("DeepSpeed scaling = %.2fx, want ~2x (data parallel)", ds)
	}
	ml := tps["MoE-Lightning(p)"]["S7"] / tps["MoE-Lightning(p)"]["S6"]
	if ml < 1.9 {
		t.Errorf("MoE-Lightning(p) scaling = %.2fx, want ~2x+ (super-linear decode)", ml)
	}
	if ml <= ds*0.9 {
		t.Errorf("TP scaling (%.2fx) should not trail data parallelism (%.2fx)", ml, ds)
	}
}

func TestTable4ShapesMatchPaper(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	get := func(task, setting, system string) Table4Row {
		for _, r := range rows {
			if r.Task == task && r.Setting == setting && r.System == system {
				return r
			}
		}
		t.Fatalf("missing row %s/%s/%s", task, setting, system)
		return Table4Row{}
	}
	for _, task := range []string{"SyntheticReasoning", "Summarization"} {
		for _, s := range []string{"S1", "S2"} {
			ml := get(task, s, "MoE-Lightning(p)")
			fg := get(task, s, "FlexGen")
			fgc := get(task, s, "FlexGen(c)")
			ds := get(task, s, "DeepSpeed")
			if ml.Failed() || fg.Failed() || fgc.Failed() || ds.Failed() {
				t.Fatalf("%s @ %s: a system failed (%v %v %v %v)", task, s, ml.Err, fg.Err, fgc.Err, ds.Err)
			}
			// Tab. 4 ordering: ML(p) > FlexGen > FlexGen(c) > DeepSpeed.
			if !(ml.TokensPerSecond > fg.TokensPerSecond) {
				t.Errorf("%s @ %s: ML(p) (%v) must beat FlexGen (%v)", task, s, ml.TokensPerSecond, fg.TokensPerSecond)
			}
			if !(fg.TokensPerSecond > ds.TokensPerSecond) {
				t.Errorf("%s @ %s: FlexGen (%v) must beat DeepSpeed (%v)", task, s, fg.TokensPerSecond, ds.TokensPerSecond)
			}
			// DeepSpeed runs one huge micro-batch.
			if ds.Policy.MicroBatches() != 1 {
				t.Errorf("%s @ %s: DeepSpeed N/mu = %d, want 1", task, s, ds.Policy.MicroBatches())
			}
		}
		// Summarization's long prompts force smaller micro-batches than
		// reasoning (Tab. 4: 3 vs 32 for FlexGen on S1).
		if get("Summarization", "S1", "FlexGen").Policy.Mu >= get("SyntheticReasoning", "S1", "FlexGen").Policy.Mu {
			t.Error("FlexGen's summarization mu should be below its reasoning mu")
		}
	}
}

func TestTable5Ordering(t *testing.T) {
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.Failed() {
			t.Fatalf("row %d (%s): %v", i, r.Label, r.Err)
		}
	}
	// Tab. 5's claims: our policy beats their policy on the same system
	// (paper: 1.77x), the larger batch helps further (paper: 2.17x),
	// and CGOPipe beats FlexGen's schedule at the identical policy
	// (paper: 30.12 vs 16.82).
	their, ours, larger, ml := rows[0], rows[1], rows[2], rows[3]
	if ours.TokensPerSecond <= their.TokensPerSecond {
		t.Errorf("our policy (%v) must beat their policy (%v)", ours.TokensPerSecond, their.TokensPerSecond)
	}
	if larger.TokensPerSecond <= ours.TokensPerSecond {
		t.Errorf("larger N (%v) must beat the balance-point batch (%v)", larger.TokensPerSecond, ours.TokensPerSecond)
	}
	if ml.TokensPerSecond <= ours.TokensPerSecond {
		t.Errorf("CGOPipe at (36, 504) (%v) must beat FlexGen's schedule at (36, 504) (%v)",
			ml.TokensPerSecond, ours.TokensPerSecond)
	}
	// Pinned policies match the paper.
	if their.Policy.Mu != 8 || their.Policy.N != 1112 || ml.Policy.Mu != 36 || ml.Policy.N != 504 {
		t.Errorf("pinned policies drifted: %v / %v", their.Policy, ml.Policy)
	}
}

func TestTable5Optimized(t *testing.T) {
	rows, err := Table5Optimized()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Failed() {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
	}
	// The full optimizer must dominate both planned baselines.
	if rows[2].TokensPerSecond <= rows[1].TokensPerSecond || rows[2].TokensPerSecond <= rows[0].TokensPerSecond {
		t.Errorf("ML(p) planned (%v) must dominate FlexGen planned rows (%v, %v)",
			rows[2].TokensPerSecond, rows[0].TokensPerSecond, rows[1].TokensPerSecond)
	}
}

func TestFigure1Shape(t *testing.T) {
	pts := Figure1([]float64{112, 128, 160, 256, 320})
	bySys := map[string][]Figure1Point{}
	for _, p := range pts {
		bySys[p.System] = append(bySys[p.System], p)
	}
	ml := bySys["MoE-Lightning(p)"]
	fg := bySys["FlexGen"]
	fgOur := bySys["FlexGen w/ our policy"]
	if len(ml) != 5 || len(fg) != 5 || len(fgOur) != 5 {
		t.Fatalf("missing systems: %v", bySys)
	}
	// Fig. 1's claims:
	// (1) MoE-Lightning dominates both lines at every memory point;
	for i := range ml {
		if ml[i].Throughput <= fg[i].Throughput || ml[i].Throughput <= fgOur[i].Throughput {
			t.Errorf("at %v GiB ML (%v) must dominate FlexGen (%v) and FlexGen-our (%v)",
				ml[i].CPUMemGiB, ml[i].Throughput, fg[i].Throughput, fgOur[i].Throughput)
		}
	}
	// (2) the existing system with its own policy saturates at a low
	// plateau (its planner's μ caps the GPU);
	if fg[4].Throughput > 1.1*fg[1].Throughput {
		t.Errorf("FlexGen-their should plateau early: %v @128 GiB vs %v @320 GiB",
			fg[1].Throughput, fg[4].Throughput)
	}
	// (3) MoE-Lightning reaches any given throughput with ~2x less CPU
	// memory than the existing system with our policy: ML at 160 GiB
	// already beats FlexGen-our at 320 GiB.
	if ml[2].Throughput <= fgOur[4].Throughput {
		t.Errorf("ML @160 GiB (%v) should beat FlexGen-our @320 GiB (%v)",
			ml[2].Throughput, fgOur[4].Throughput)
	}
}

func TestFigure4And5(t *testing.T) {
	f4 := Figure4()
	if len(f4.Roofs) != 5 || len(f4.Ops) != 2 {
		t.Fatal("figure 4 incomplete")
	}
	out := f4.Render()
	if !strings.Contains(out, "best on CPU") {
		t.Error("Fig. 4 must place attention on CPU")
	}
	f5 := Figure5()
	if f5.Kernel == nil || f5.P2 <= f5.P1 {
		t.Errorf("figure 5 turning points: P1=%v P2=%v", f5.P1, f5.P2)
	}
	if !strings.Contains(f5.Render(), "N=16384") {
		t.Error("Fig. 5 must include the largest batch marker")
	}
}

func TestFigure6CGOPipeWins(t *testing.T) {
	rs, err := Figure6("S1", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	span := map[schedule.Strategy]float64{}
	for _, r := range rs {
		span[r.Strategy] = r.Result.Makespan
	}
	for s, v := range span {
		if s == schedule.CGOPipe {
			continue
		}
		if span[schedule.CGOPipe] >= v {
			t.Errorf("CGOPipe (%v) not faster than %s (%v)", span[schedule.CGOPipe], s, v)
		}
	}
	if !strings.Contains(RenderFigure6(rs), "makespan") {
		t.Error("render missing makespan")
	}
}

func TestFigure8SuperLinearScaling(t *testing.T) {
	rows, err := Figure8([]int{32, 128})
	if err != nil {
		t.Fatal(err)
	}
	byGen := map[int]map[string]float64{}
	for _, r := range rows {
		if r.Failed() {
			t.Fatalf("%s gen=%d: %v", r.Setting, r.GenLen, r.Err)
		}
		if byGen[r.GenLen] == nil {
			byGen[r.GenLen] = map[string]float64{}
		}
		byGen[r.GenLen][r.Setting] = r.TokensPerSecond
	}
	for gen, v := range byGen {
		scaling := v["S9"] / v["S8"]
		if scaling < 1.8 {
			t.Errorf("gen=%d: DBRX 2->4 T4 scaling %.2fx, want ~2x+ (paper: 2.1-2.8x)", gen, scaling)
		}
	}
}

func TestFigure9Relationships(t *testing.T) {
	cells, err := Figure9([]int{32, 256}, []int{128, 2048})
	if err != nil {
		t.Fatal(err)
	}
	find := func(mu, ctx int) Figure9Cell {
		for _, c := range cells {
			if c.MicroBatch == mu && c.Context == ctx {
				return c
			}
		}
		t.Fatalf("missing cell %d/%d", mu, ctx)
		return Figure9Cell{}
	}
	// §6.2: CPU attention 3-4x faster than KV transfer.
	c := find(256, 2048)
	if ratio := c.KVTransfer / c.CPUAttention; ratio < 2.5 || ratio > 6 {
		t.Errorf("KV/CPU-attn = %.2f, want 3-4x", ratio)
	}
	// At mu=256, ctx=2048, CPU attention exceeds the FFN.
	if c.CPUAttention < c.FFN {
		t.Error("CPU attention should dominate at the largest cell")
	}
	// At mu=32, ctx=128 the FFN dominates.
	small := find(32, 128)
	if small.CPUAttention > small.FFN {
		t.Error("FFN should dominate at the smallest cell")
	}
}

func TestFigure10Trends(t *testing.T) {
	cells := Figure10([]float64{1, 10}, []float64{100, 500})
	find := func(scale, bw float64) Figure10Cell {
		for _, c := range cells {
			if c.CPUScale == scale && c.LinkGBps == bw {
				return c
			}
		}
		t.Fatalf("missing cell %v/%v", scale, bw)
		return Figure10Cell{}
	}
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("cell %v/%v: %v", c.CPUScale, c.LinkGBps, c.Err)
		}
	}
	// §6.3: higher CPU-GPU bandwidth -> more weights offloaded to CPU.
	if find(10, 500).WeightsOnCPU < find(10, 100).WeightsOnCPU {
		t.Error("more link bandwidth should allow more weights on CPU")
	}
	// Weak CPU at modest bandwidth: KV stays on GPU.
	weak := find(1, 100)
	if weak.KVOnCPU > 0.5 {
		t.Errorf("weak CPU should keep KV on GPU, got %v on CPU", weak.KVOnCPU)
	}
}

func TestRenderers(t *testing.T) {
	rows, err := Figure7([]string{"S1"}, []int{32})
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderFigure7(rows); !strings.Contains(out, "MoE-Lightning") {
		t.Error("figure 7 render")
	}
	t4, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable4(t4); !strings.Contains(out, "Summarization") {
		t.Error("table 4 render")
	}
	t5, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable5(t5); !strings.Contains(out, "Speedup") {
		t.Error("table 5 render")
	}
	f1 := Figure1([]float64{128, 192})
	if out := RenderFigure1(f1); !strings.Contains(out, "CPU mem") {
		t.Error("figure 1 render")
	}
	f9, _ := Figure9([]int{32}, []int{128})
	if out := RenderFigure9(f9); !strings.Contains(out, "KV transfer") {
		t.Error("figure 9 render")
	}
	f10 := Figure10([]float64{1}, []float64{100})
	if out := RenderFigure10(f10); !strings.Contains(out, "Figure 10a") {
		t.Error("figure 10 render")
	}
	f8, _ := Figure8([]int{32})
	if out := RenderFigure8(f8); !strings.Contains(out, "scaling") {
		t.Error("figure 8 render")
	}
}

func TestRunPolicyHonorsPadding(t *testing.T) {
	setting := Settings()["S1"]
	in := setting.Input(workload.MTBench(64))
	p := perfmodel.Policy{N: 128, Mu: 32, GPUFFN: true}
	padded := RunPolicy(MoELightningP(), in, p)
	unpadded := RunPolicy(MoELightning(), in, p)
	if padded.Failed() || unpadded.Failed() {
		t.Fatal("runs failed")
	}
	if padded.TokensPerSecond >= unpadded.TokensPerSecond {
		t.Error("padding must cost throughput at equal policy")
	}
}

// TestSimulatorNeverBeatsIdealModel: the analytic estimator assumes a
// perfect pipeline (Eq. 12, lane maxima), so the simulated decode step
// — which adds issue-order bubbles — must never be faster, for any
// system, and should be within 2x for CGOPipe (its whole point is
// approaching the ideal).
func TestSimulatorNeverBeatsIdealModel(t *testing.T) {
	setting := Settings()["S1"]
	in := setting.Input(workload.MTBench(128))
	in.Padded = true
	e, err := perfmodel.New(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx := in.MidContext()
	for _, p := range []perfmodel.Policy{
		{N: 512, Mu: 64, GPUFFN: true},
		{N: 512, Mu: 64, GPUFFN: true, GPUAttn: true},
		{N: 1024, Mu: 32, GPUFFN: true, WeightsGPURatio: 0.1},
	} {
		ideal := e.DecodeStepTime(p, ctx)
		plan := schedule.PlanFor(e, p, ctx)
		for _, s := range schedule.Strategies() {
			if s == schedule.Serial {
				continue // serial ignores the CPU-attention policy split
			}
			tasks, err := schedule.Build(s, plan)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(tasks)
			if err != nil {
				t.Fatal(err)
			}
			// The per-strategy sim may omit lanes the policy doesn't use
			// (e.g. CGOPipe has no KV loads), so compare against the
			// ideal with a small numeric slack only in the forbidden
			// direction.
			if s == schedule.CGOPipe && !p.GPUAttn {
				if res.Makespan < ideal*0.98 {
					t.Errorf("policy %v: CGOPipe sim (%v) beats the ideal (%v)", p, res.Makespan, ideal)
				}
				if res.Makespan > ideal*2 {
					t.Errorf("policy %v: CGOPipe sim (%v) too far above the ideal (%v)", p, res.Makespan, ideal)
				}
			}
		}
	}
}

// TestMeasurementUtilizationSane: lane utilizations from a measurement
// are in [0,1] and the bottleneck lane of an HtoD-bound policy is busy.
func TestMeasurementUtilizationSane(t *testing.T) {
	setting := Settings()["S1"]
	in := setting.Input(workload.MTBench(128))
	m := RunPolicy(MoELightningP(), in, perfmodel.Policy{N: 512, Mu: 64, GPUFFN: true})
	if m.Failed() {
		t.Fatal(m.Err)
	}
	for lane, u := range m.Utilization {
		if u < 0 || u > 1.000001 {
			t.Errorf("lane %v utilization %v out of range", lane, u)
		}
	}
	if m.Utilization[sim.HtoD] < 0.9 {
		t.Errorf("weight-bound CGOPipe should saturate HtoD, got %.2f", m.Utilization[sim.HtoD])
	}
}

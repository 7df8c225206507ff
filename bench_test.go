package moelightning

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its experiment through the full stack (policy
// search + discrete-event simulation) and reports the headline numbers
// as custom metrics, so `go test -bench=.` reproduces the paper's
// result set. EXPERIMENTS.md records paper-vs-measured values.

import (
	"fmt"
	"testing"

	"moelightning/internal/experiments"
	"moelightning/internal/model"
	"moelightning/internal/perfmodel"
	"moelightning/internal/schedule"
	"moelightning/internal/workload"
)

// BenchmarkFigure1 regenerates the motivating throughput-vs-CPU-memory
// sweep. Reported metrics: MoE-Lightning's and FlexGen's throughput at
// 192 GiB.
func BenchmarkFigure1(b *testing.B) {
	var pts []experiments.Figure1Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure1([]float64{112, 128, 160, 192, 256})
	}
	for _, p := range pts {
		if p.CPUMemGiB == 192 {
			switch p.System {
			case "MoE-Lightning(p)":
				b.ReportMetric(p.Throughput, "ML-tok/s@192GiB")
			case "FlexGen":
				b.ReportMetric(p.Throughput, "FlexGen-tok/s@192GiB")
			}
		}
	}
}

// BenchmarkFigure4 regenerates the attention-block HRM analysis.
// Reported metric: attention's f16 operational intensity.
func BenchmarkFigure4(b *testing.B) {
	var fig experiments.HRMFigure
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure4()
		_ = fig.Render()
	}
	b.ReportMetric(fig.Ops[0].ILower, "attn-f16-intensity")
	b.ReportMetric(fig.P1, "P1-intensity")
}

// BenchmarkFigure5 regenerates the MoE FFN HRM analysis. Reported
// metrics: the P1 and P2 turning points.
func BenchmarkFigure5(b *testing.B) {
	var fig experiments.HRMFigure
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure5()
		_ = fig.Render()
	}
	b.ReportMetric(fig.P1, "P1-intensity")
	b.ReportMetric(fig.P2, "P2-intensity")
}

// BenchmarkFigure6 simulates the four scheduling strategies for one
// decode step. Reported metrics: CGOPipe's makespan and its advantage
// over FlexGen's S4.
func BenchmarkFigure6(b *testing.B) {
	var rs []experiments.Figure6Result
	var err error
	for i := 0; i < b.N; i++ {
		rs, err = experiments.Figure6("S1", 4, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	span := map[schedule.Strategy]float64{}
	for _, r := range rs {
		span[r.Strategy] = r.Result.Makespan
	}
	b.ReportMetric(span[schedule.CGOPipe], "cgopipe-makespan-s")
	b.ReportMetric(span[schedule.GPUAttn]/span[schedule.CGOPipe], "speedup-vs-S4")
}

// BenchmarkFigure7S1 regenerates the headline MTBench comparison on S1
// at generation length 128 (the full figure's worst-case column).
func BenchmarkFigure7S1(b *testing.B) {
	benchFigure7(b, "S1")
}

// BenchmarkFigure7S2 regenerates MTBench on the L4 setting.
func BenchmarkFigure7S2(b *testing.B) {
	benchFigure7(b, "S2")
}

// BenchmarkFigure7S6 regenerates MTBench for Mixtral 8x22B on 2xT4.
func BenchmarkFigure7S6(b *testing.B) {
	benchFigure7(b, "S6")
}

// BenchmarkFigure7S7 regenerates MTBench for Mixtral 8x22B on 4xT4.
func BenchmarkFigure7S7(b *testing.B) {
	benchFigure7(b, "S7")
}

func benchFigure7(b *testing.B, setting string) {
	b.Helper()
	var rows []experiments.Figure7Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure7([]string{setting}, []int{128})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Failed() {
			b.Fatalf("%s: %v", r.System, r.Err)
		}
		b.ReportMetric(r.TokensPerSecond, r.System+"-tok/s")
	}
}

// BenchmarkFigure8 regenerates the DBRX tensor-parallel scaling study.
// Reported metric: the 2->4 GPU scaling factor at gen 128.
func BenchmarkFigure8(b *testing.B) {
	var rows []experiments.Figure8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Figure8([]int{128})
		if err != nil {
			b.Fatal(err)
		}
	}
	tps := map[string]float64{}
	for _, r := range rows {
		tps[r.Setting] = r.TokensPerSecond
	}
	b.ReportMetric(tps["S8"], "2xT4-tok/s")
	b.ReportMetric(tps["S9"], "4xT4-tok/s")
	b.ReportMetric(tps["S9"]/tps["S8"], "scaling-x")
}

// BenchmarkFigure9 regenerates the kernel-latency ablation. Reported
// metric: the KV-transfer / CPU-attention ratio at mu=128, ctx=1024
// (paper: 3-4x).
func BenchmarkFigure9(b *testing.B) {
	var cells []experiments.Figure9Cell
	var err error
	for i := 0; i < b.N; i++ {
		cells, err = experiments.Figure9([]int{32, 64, 128, 256}, []int{128, 256, 512, 1024, 2048})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		if c.MicroBatch == 128 && c.Context == 1024 {
			b.ReportMetric(c.KVTransfer/c.CPUAttention, "kv/cpu-attn-ratio")
			b.ReportMetric(c.FFN*1000, "ffn-ms")
		}
	}
}

// BenchmarkFigure10 regenerates the hardware-sweep policy study on
// 2xA100. Reported metric: weights-on-CPU ratio at the strongest-CPU,
// highest-bandwidth corner versus the weakest corner.
func BenchmarkFigure10(b *testing.B) {
	var cells []experiments.Figure10Cell
	for i := 0; i < b.N; i++ {
		cells = experiments.Figure10([]float64{1, 4, 10}, []float64{100, 300, 500})
	}
	for _, c := range cells {
		if c.CPUScale == 10 && c.LinkGBps == 500 {
			b.ReportMetric(c.WeightsOnCPU, "weights-on-cpu@10x500")
		}
		if c.CPUScale == 1 && c.LinkGBps == 100 {
			b.ReportMetric(c.WeightsOnCPU, "weights-on-cpu@1x100")
		}
	}
}

// BenchmarkTable4 regenerates the HELM task evaluation. Reported
// metrics: MoE-Lightning(p)'s throughput on both tasks under S1.
func BenchmarkTable4(b *testing.B) {
	var rows []experiments.Table4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Setting == "S1" && r.System == "MoE-Lightning(p)" {
			b.ReportMetric(r.TokensPerSecond, r.Task+"-tok/s")
		}
	}
}

// BenchmarkTable5 regenerates the policy ablation with the paper's
// pinned policies. Reported metrics: each row's speedup over FlexGen
// with its own policy.
func BenchmarkTable5(b *testing.B) {
	var rows []experiments.Table5Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	base := rows[0].TokensPerSecond
	b.ReportMetric(rows[1].TokensPerSecond/base, "our-policy-x")
	b.ReportMetric(rows[2].TokensPerSecond/base, "larger-N-x")
	b.ReportMetric(rows[3].TokensPerSecond/base, "cgopipe-x")
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

// BenchmarkAblationPagedWeights isolates weight paging: the CGOPipe
// schedule against the same pipeline with monolithic transfers (S2) at
// the same policy.
func BenchmarkAblationPagedWeights(b *testing.B) {
	var rs []experiments.Figure6Result
	var err error
	for i := 0; i < b.N; i++ {
		rs, err = experiments.Figure6("S1", 8, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	span := map[schedule.Strategy]float64{}
	for _, r := range rs {
		span[r.Strategy] = r.Result.Makespan
	}
	b.ReportMetric(span[schedule.Overlap]/span[schedule.CGOPipe], "paging-speedup-x")
}

// BenchmarkAblationLookahead isolates the two-ahead CPU-attention
// launch: lookahead-2 (CGOPipe) vs lookahead-1 (S3-like) at the same
// policy and paging disabled for both.
func BenchmarkAblationLookahead(b *testing.B) {
	var rs []experiments.Figure6Result
	var err error
	for i := 0; i < b.N; i++ {
		rs, err = experiments.Figure6("S1", 8, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	span := map[schedule.Strategy]float64{}
	for _, r := range rs {
		span[r.Strategy] = r.Result.Makespan
	}
	b.ReportMetric(span[schedule.SerialCPU]/span[schedule.Overlap], "lookahead-speedup-x")
}

// BenchmarkPolicySearch measures the optimizer itself (the paper's §B.2
// notes the MILP takes under a minute; the exhaustive search here runs
// in milliseconds).
func BenchmarkPolicySearch(b *testing.B) {
	sys, err := New(Config{
		Model:    Mixtral8x7B(),
		Hardware: SettingS1(),
		Workload: MTBench(128),
		Padded:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorDecodeStep measures the discrete-event simulator on
// a production-size decode step (32 layers x 10 micro-batches).
func BenchmarkSimulatorDecodeStep(b *testing.B) {
	sys, err := New(Config{
		Model:    Mixtral8x7B(),
		Hardware: SettingS1(),
		Workload: MTBench(128),
		Padded:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := Policy{N: 1562, Mu: 156, GPUFFN: true, WeightsGPURatio: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Simulate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionalDecodeStep measures the functional engine's
// tokens/second at tiny scale (real math, all five lanes concurrent).
func BenchmarkFunctionalDecodeStep(b *testing.B) {
	benchFunctional(b, 8, 2)
}

// BenchmarkFunctionalSingleMicroBatch is the degenerate pipeline.
func BenchmarkFunctionalSingleMicroBatch(b *testing.B) {
	benchFunctional(b, 4, 4)
}

func benchFunctional(b *testing.B, seqs, mu int) {
	b.Helper()
	// Local imports keep the facade example-focused; the engine is
	// internal but reachable from this module's benches.
	cfg := model.Tiny()
	run := func() {
		cpu := newArena(1 << 22)
		gpu := newArena(1 << 22)
		pinned := newArena(1 << 22)
		cacheArena := newArena(1 << 22)
		w, err := newWeights(cpu, cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		reqs := make([]workload.Request, seqs)
		for i := range reqs {
			reqs[i] = workload.Request{ID: i, PromptLen: 8}
		}
		prompts := promptsFrom(reqs, cfg.VocabSize)
		pl, err := newPipeline(w, gpu, pinned, cacheArena, seqs, mu)
		if err != nil {
			b.Fatal(err)
		}
		defer pl.Close()
		if _, err := pl.Generate(prompts, 8); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(seqs*8), "tokens/op")
}

// BenchmarkEstimatorDecodeLayer measures one analytic cost evaluation
// (the optimizer's inner loop).
func BenchmarkEstimatorDecodeLayer(b *testing.B) {
	e, err := perfmodel.New(perfmodel.Input{
		Model:    model.Mixtral8x7B(),
		Spec:     SettingS1(),
		Workload: workload.MTBench(128),
		Padded:   true,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := perfmodel.Policy{N: 1024, Mu: 64, GPUFFN: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.DecodeLayer(p, 512)
	}
}

// --- Extension benches (§C future work implemented here). ---

// BenchmarkExtensionDiskOffload regenerates the disk-tier study.
// Reported metric: throughput at 48 GiB DRAM + NVMe (infeasible without
// the disk).
func BenchmarkExtensionDiskOffload(b *testing.B) {
	var rows []experiments.DiskRow
	for i := 0; i < b.N; i++ {
		rows = experiments.DiskOffload([]float64{48, 192})
	}
	for _, r := range rows {
		if r.Disk == "NVMe" && !r.Failed() {
			b.ReportMetric(r.TokensPerSecond, fmt.Sprintf("tok/s@%.0fGiB", r.CPUMemGiB))
		}
	}
}

// BenchmarkExtensionQuantization regenerates the dtype sweep. Reported
// metric: int4-weight speedup over f16.
func BenchmarkExtensionQuantization(b *testing.B) {
	var rows []experiments.QuantRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Quantization()
	}
	var f16, i4 float64
	for _, r := range rows {
		if r.KV == model.F16 {
			switch r.Weights {
			case model.F16:
				f16 = r.TokensPerSecond
			case model.Int4:
				i4 = r.TokensPerSecond
			}
		}
	}
	b.ReportMetric(i4/f16, "int4-speedup-x")
}

// BenchmarkExtensionKVSparsity regenerates the attention-budget sweep.
// Reported metric: speedup of budget 0.25 over dense on the
// CPU-attention-bound setting.
func BenchmarkExtensionKVSparsity(b *testing.B) {
	var rows []experiments.SparsityRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.KVSparsity([]float64{1, 0.25})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].TokensPerSecond/rows[0].TokensPerSecond, "sparsity-speedup-x")
}

// BenchmarkFunctionalServe measures wave-based serving through the
// functional engine (Alg. 2 batching + CGOPipe per wave).
func BenchmarkFunctionalServe(b *testing.B) {
	reqs := make([]workload.Request, 8)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, PromptLen: 4 + i%5, GenLen: 6}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunFunctional(TinyMoE(), reqs, FunctionalOptions{ServerConfig: ServerConfig{Seed: 1, GenLen: 6}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outputs) != len(reqs) {
			b.Fatal("lost requests")
		}
	}
}

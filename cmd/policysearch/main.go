// Command policysearch runs the HRM-based policy optimizer for a model,
// hardware setting and workload, printing the chosen policy, the
// byte-denominated memory budgets and the estimated vs simulated
// throughput. With -calib it searches over measured kernel
// efficiencies instead of the analytic spec curve, and for models the
// functional engine can run it emits the chosen policy as a
// copy-pasteable, ready-to-run ServerConfig.
//
// Usage:
//
//	policysearch -model mixtral-8x7b -setting S1 -workload mtbench -gen 128 [-padded]
//	policysearch -model tiny -setting host -calib BENCH_calib.json -kvdtype int8
package main

import (
	"flag"
	"fmt"
	"os"

	"moelightning"
	"moelightning/internal/calib"
	"moelightning/internal/experiments"
	"moelightning/internal/hardware"
	"moelightning/internal/kvcache"
	"moelightning/internal/model"
	"moelightning/internal/perfmodel"
	"moelightning/internal/policy"
	"moelightning/internal/workload"
)

func main() {
	modelName := flag.String("model", "mixtral-8x7b", "model preset: mixtral-8x7b, mixtral-8x22b, dbrx, tiny")
	settingName := flag.String("setting", "S1", "hardware setting: S1,S2,S6,S7,S8,S9,2xA100,host")
	workloadName := flag.String("workload", "mtbench", "workload preset: mtbench, reasoning, summarize")
	gen := flag.Int("gen", 128, "generation length (mtbench only)")
	padded := flag.Bool("padded", false, "pad requests to the maximum prompt length")
	calibPath := flag.String("calib", "", "calibration report written by moebench -exp calib -json; searches its measured efficiencies over the paged weight layout")
	kvdtypeName := flag.String("kvdtype", "f32", "KV codec the calibrated estimator and the emitted serve config assume: f32 or int8")
	flag.Parse()

	m, ok := model.Presets()[*modelName]
	if !ok {
		fatal(fmt.Errorf("unknown model %q", *modelName))
	}
	spec, ok := hardware.Presets()[*settingName]
	if !ok {
		fatal(fmt.Errorf("unknown setting %q", *settingName))
	}
	w, ok := workload.Presets()[*workloadName]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	if *workloadName == "mtbench" {
		w = w.WithGenLen(*gen)
	}
	kvDtype, err := moelightning.ParseKVDtype(*kvdtypeName)
	if err != nil {
		fatal(err)
	}

	in := perfmodel.Input{Model: m, Spec: spec, Workload: w, Padded: *padded}
	if *calibPath != "" {
		table, err := calib.Load(*calibPath, perfmodel.AnalyticEfficiency(spec))
		if err != nil {
			fatal(err)
		}
		in.Eff = table
		in.Paged = true
		in.ExpertHitRatio = table.ExpertHitRatio
		in.KVCodec = perfmodel.KVPagedF32
		if kvDtype == kvcache.Int8 {
			in.KVCodec = perfmodel.KVPagedInt8
		}
		fmt.Printf("calibrated: %s (%d entries, host %s, expert warm-hit %.0f%%, decode schedule eff %.2f)\n",
			*calibPath, len(table.Entries), table.Host, 100*table.ExpertHitRatio, table.ScheduleEffDecode)
	}
	fmt.Println("model:   ", m)
	fmt.Println("hardware:", spec)
	fmt.Printf("workload: %s (avg prompt %d, gen %d, padded=%v)\n\n", w.Name, w.AvgPrompt, w.GenLen, *padded)

	res, err := policy.Optimize(in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("policy:    %v\n", res.Policy)
	fmt.Printf("searched:  %d candidates (%d feasible)\n", res.Evaluated, res.Feasible)
	fmt.Printf("estimated: %.2f tok/s (bottleneck: %s)\n", res.Report.TokensPerSecond, res.Report.Bottleneck)

	e, err := perfmodel.New(in)
	if err != nil {
		fatal(err)
	}
	g, c := e.GPUMem(res.Policy), e.CPUMem(res.Policy)
	fmt.Printf("GPU memory: %.1f GiB of %.1f (weights %.1f, buffer %.1f, kv %.1f, act %.1f, emb %.1f)\n",
		gib(g.Total()), gib(spec.TotalGPUMem()), gib(g.Weights), gib(g.WeightBuffer),
		gib(g.KVCache), gib(g.Activations), gib(g.Embeddings))
	fmt.Printf("CPU memory: %.1f GiB of %.1f (weights %.1f, staging %.1f, kv %.1f)\n",
		gib(c.Total()), gib(spec.CPU.MemBytes), gib(c.Weights), gib(c.WeightBuffer), gib(c.KVCache))

	// Byte-denominated traffic budgets per layer pass at mid-generation:
	// what each decode step actually moves, at the serving codec's rate.
	kvTokLayer := float64(m.KVBytesPerTokenLayer())
	if *calibPath != "" {
		kvTokLayer = float64(kvcache.TokenBytes(m.KVDim(), kvDtype))
	}
	fmt.Printf("budgets/layer: weight stream %s per pass, KV %s per token (%s whole-batch at mid-gen context %d)\n",
		mib(e.WeightStreamBytes(res.Policy)), bytesStr(kvTokLayer),
		mib(float64(res.Policy.N)*float64(in.MidContext())*kvTokLayer), in.MidContext())

	sys := experiments.MoELightning()
	sys.Padded = *padded
	mes := experiments.RunPolicy(sys, in, res.Policy)
	if mes.Failed() {
		fatal(mes.Err)
	}
	fmt.Printf("simulated: %.2f tok/s (prefill %.0fs + decode %.0fs for %d tokens)\n",
		mes.TokensPerSecond, mes.PrefillSeconds, mes.DecodeSeconds, mes.GeneratedTokens)

	// For models the functional engine can execute, emit the policy as
	// a ready-to-run server configuration.
	if m.TotalParams() <= 50_000_000 {
		cfg := moelightning.ServerConfigForPolicy(m, res.Policy, w, kvDtype)
		fmt.Printf("\nserve config (copy-pasteable):\n  %s\n", moelightning.FormatServerConfig(cfg))
	}
}

func gib(b int64) float64 { return float64(b) / (1 << 30) }

func mib(b float64) string { return fmt.Sprintf("%.1f MiB", b/(1<<20)) }

func bytesStr(b float64) string {
	if b >= 1<<10 {
		return fmt.Sprintf("%.1f KiB", b/(1<<10))
	}
	return fmt.Sprintf("%.0f B", b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "policysearch:", err)
	os.Exit(1)
}

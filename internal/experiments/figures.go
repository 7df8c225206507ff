package experiments

import (
	"fmt"

	"moelightning/internal/hardware"
	"moelightning/internal/metrics"
	"moelightning/internal/model"
	"moelightning/internal/perfmodel"
	"moelightning/internal/policy"
	"moelightning/internal/roofline"
	"moelightning/internal/schedule"
	"moelightning/internal/sim"
	"moelightning/internal/workload"
)

// ---------------------------------------------------------------- Fig 1

// Figure1Point is one point of the motivating Fig. 1: achievable
// throughput against CPU memory for a system.
type Figure1Point struct {
	System     string
	CPUMemGiB  float64
	Throughput float64
}

// Figure1 sweeps CPU memory for Mixtral 8x7B on the S1 GPU and measures
// three systems: the existing system (FlexGen) with its own policy, the
// existing system with our policy, and MoE-Lightning. The paper's
// qualitative claim: MoE-Lightning reaches the throughput bound with
// 2-3x less CPU memory.
func Figure1(memsGiB []float64) []Figure1Point {
	var pts []Figure1Point
	base := Settings()["S1"]
	for _, gib := range memsGiB {
		spec := base.Spec
		spec.CPU.MemBytes = hardware.GiB(gib)
		in := perfmodel.Input{Model: base.Model, Spec: spec, Workload: workload.MTBench(128)}
		for _, sys := range []System{FlexGen(), flexGenOurPolicy(), MoELightningP()} {
			m := Run(sys, in)
			tps := m.TokensPerSecond
			if m.Failed() {
				tps = 0
			}
			pts = append(pts, Figure1Point{System: sys.Name, CPUMemGiB: gib, Throughput: tps})
		}
	}
	return pts
}

// flexGenOurPolicy is the "existing system w/ our policy" line.
func flexGenOurPolicy() System {
	s := FlexGen()
	s.Name = "FlexGen w/ our policy"
	s.Plan = func(in perfmodel.Input) (perfmodel.Policy, error) {
		res, err := policy.FlexGenOurPolicy(in)
		return res.Policy, err
	}
	return s
}

// RenderFigure1 prints the sweep as a table.
func RenderFigure1(pts []Figure1Point) string {
	byMem := map[float64]map[string]float64{}
	var mems []float64
	sysSet := map[string]bool{}
	for _, p := range pts {
		if byMem[p.CPUMemGiB] == nil {
			byMem[p.CPUMemGiB] = map[string]float64{}
			mems = append(mems, p.CPUMemGiB)
		}
		byMem[p.CPUMemGiB][p.System] = p.Throughput
		sysSet[p.System] = true
	}
	systems := presentationOrder(sysSet)
	t := metrics.Table{Header: append([]string{"CPU mem (GiB)"}, systems...)}
	for _, m := range mems {
		cells := []interface{}{m}
		for _, s := range systems {
			cells = append(cells, byMem[m][s])
		}
		t.Add(cells...)
	}
	return "Figure 1: throughput vs CPU memory (Mixtral 8x7B, T4, MTBench gen=128)\n" + t.String()
}

// ------------------------------------------------------------ Figs 4/5

// HRMFigure bundles the data of an HRM plot.
type HRMFigure struct {
	Title string
	HRM   roofline.HRM
	Roofs []roofline.Series
	// Ops are the vertical markers (operational intensities).
	Ops []roofline.Op
	// Kernel is the attainable curve at fixed upper intensity (Fig. 5).
	Kernel *roofline.Series
	// P1, P2 are the turning points' lower-level intensities.
	P1, P2 float64
}

// Figure4 builds the HRM plot for Mixtral 8x7B's GQA attention block in
// decode on the L4 instance at context 512 (Fig. 4).
func Figure4() HRMFigure {
	h := roofline.FromSpec(hardware.S2())
	cfg := model.Mixtral8x7B()
	f16 := roofline.AttentionOp(cfg, 512, model.F16)
	int4 := roofline.AttentionOp(cfg, 512, model.Int4)
	return HRMFigure{
		Title: "Figure 4: HRM, Mixtral 8x7B GQA attention, decode, L4, ctx=512",
		HRM:   h,
		Roofs: h.Roofs(0.1, 1e4, 64),
		Ops:   []roofline.Op{f16, int4},
		P1:    h.P1At(f16),
	}
}

// Figure5 builds the HRM plot for the MoE FFN block at micro-batch 128
// with batch-size markers (Fig. 5).
func Figure5() HRMFigure {
	h := roofline.FromSpec(hardware.S2())
	cfg := model.Mixtral8x7B()
	var ops []roofline.Op
	for _, n := range []int{32, 128, 1024, 16384} {
		op := roofline.FFNOp(cfg, n, 128)
		op.Name = fmt.Sprintf("MoE FFN N=%d", n)
		ops = append(ops, op)
	}
	kernel := h.KernelCurve(ops[0].IUpper, 0.1, 1e4, 64)
	return HRMFigure{
		Title:  "Figure 5: HRM, Mixtral 8x7B MoE FFN, decode, L4, mu=128",
		HRM:    h,
		Roofs:  h.Roofs(0.1, 1e4, 64),
		Ops:    ops,
		Kernel: &kernel,
		P1:     h.P1(),
		P2:     h.P2At(ops[0].IUpper),
	}
}

// Render prints the HRM figure as a log-log ASCII plot plus the turning
// points and per-op placements.
func (f HRMFigure) Render() string {
	var series []metrics.Series
	markers := []byte{'c', 'g', 'x', 'C', 'G'}
	for i, r := range f.Roofs {
		s := metrics.Series{Name: r.Name, Marker: markers[i%len(markers)]}
		for _, p := range r.Points {
			s.X = append(s.X, p.Intensity)
			s.Y = append(s.Y, p.Perf)
		}
		series = append(series, s)
	}
	if f.Kernel != nil {
		s := metrics.Series{Name: f.Kernel.Name, Marker: 'k'}
		for _, p := range f.Kernel.Points {
			s.X = append(s.X, p.Intensity)
			s.Y = append(s.Y, p.Perf)
		}
		series = append(series, s)
	}
	out := metrics.LogLogPlot(f.Title, 72, 20, series)
	if f.P1 > 0 {
		out += fmt.Sprintf("P1 at I_lower = %.2f FLOPs/Byte\n", f.P1)
	}
	if f.P2 > 0 {
		out += fmt.Sprintf("P2 at I_lower = %.2f FLOPs/Byte\n", f.P2)
	}
	for _, op := range f.Ops {
		perf, onUpper := f.HRM.Best(op)
		place := "CPU"
		if onUpper {
			place = "GPU"
		}
		out += fmt.Sprintf("%-18s I_lower=%8.2f I_upper=%8.2f -> best on %s (%.2e FLOP/s)\n",
			op.Name, op.ILower, op.IUpper, place, perf)
	}
	return out
}

// ---------------------------------------------------------------- Fig 6

// Figure6Result is one strategy's simulated decode-layer schedule.
type Figure6Result struct {
	Strategy schedule.Strategy
	Result   sim.Result
	Tasks    []sim.Task
}

// Figure6 simulates one decode step under each strategy (none given:
// the four of Fig. 6) on a small representative plan, layers x
// microBatches, whose durations are MoE-Lightning's policy on the
// setting priced at mid-generation.
func Figure6(settingName string, layers, microBatches int, strategies ...schedule.Strategy) ([]Figure6Result, error) {
	setting, err := Lookup(settingName)
	if err != nil {
		return nil, err
	}
	in := setting.Input(workload.MTBench(128))
	in.Padded = true
	e, err := perfmodel.New(in)
	if err != nil {
		return nil, err
	}
	res, err := policy.Optimize(in)
	if err != nil {
		return nil, err
	}
	plan := schedule.PlanFor(e, res.Policy, in.MidContext())
	plan.Layers = layers
	plan.MicroBatches = microBatches
	// A page is a microBatches-th of the layer's transfer.
	plan.D.WeightPage = plan.D.WeightWhole / float64(microBatches)
	plan.D.PinPage = plan.D.PinWhole / float64(microBatches)
	plan.D.DiskPage = plan.D.DiskWhole / float64(microBatches)

	if len(strategies) == 0 {
		strategies = []schedule.Strategy{schedule.CGOPipe, schedule.Overlap, schedule.SerialCPU, schedule.GPUAttn}
	}
	var out []Figure6Result
	for _, s := range strategies {
		tasks, err := schedule.Build(s, plan)
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(tasks)
		if err != nil {
			return nil, err
		}
		if err := r.Validate(tasks); err != nil {
			return nil, err
		}
		out = append(out, Figure6Result{Strategy: s, Result: r, Tasks: tasks})
	}
	return out, nil
}

// RenderFigure6 prints the Gantt chart per strategy.
func RenderFigure6(rs []Figure6Result) string {
	out := "Figure 6: scheduling strategies (one decode step)\n\n"
	for _, r := range rs {
		out += metrics.Gantt(string(r.Strategy), r.Result, 96) + "\n"
	}
	return out
}

// ---------------------------------------------------------------- Fig 8

// Figure8Row is one bar of Fig. 8: DBRX tensor-parallel throughput.
type Figure8Row struct {
	Setting string
	GenLen  int
	Measurement
}

// Figure8 reproduces the DBRX tensor-parallelism study: MoE-Lightning
// (all optimizations, unpadded) on S8 (2xT4) and S9 (4xT4).
func Figure8(genLens []int) ([]Figure8Row, error) {
	var rows []Figure8Row
	for _, name := range []string{"S8", "S9"} {
		setting, err := Lookup(name)
		if err != nil {
			return nil, err
		}
		for _, gen := range genLens {
			in := setting.Input(workload.MTBench(gen))
			m := Run(MoELightning(), in)
			rows = append(rows, Figure8Row{Setting: name, GenLen: gen, Measurement: m})
		}
	}
	return rows, nil
}

// RenderFigure8 prints the scaling table with the 2->4 GPU speedups.
func RenderFigure8(rows []Figure8Row) string {
	byGen := map[int]map[string]float64{}
	var gens []int
	for _, r := range rows {
		if byGen[r.GenLen] == nil {
			byGen[r.GenLen] = map[string]float64{}
			gens = append(gens, r.GenLen)
		}
		byGen[r.GenLen][r.Setting] = r.TokensPerSecond
	}
	t := metrics.Table{Header: []string{"gen_len", "2xT4 (S8)", "4xT4 (S9)", "scaling"}}
	for _, g := range gens {
		two, four := byGen[g]["S8"], byGen[g]["S9"]
		scaling := "-"
		if two > 0 {
			scaling = fmt.Sprintf("%.2fx", four/two)
		}
		t.Add(g, two, four, scaling)
	}
	return "Figure 8: DBRX with tensor parallelism, MTBench (tokens/s)\n" + t.String()
}

// ---------------------------------------------------------------- Fig 9

// Figure9Cell is one latency sample of the §6.2 ablation.
type Figure9Cell struct {
	MicroBatch, Context           int
	FFN, KVTransfer, CPUAttention float64
}

// Figure9 measures per-layer latencies of the MoE FFN kernel, the KV
// cache transfer and the CPU attention kernel across micro-batch sizes
// and context lengths, on the Fig. 9 hardware (L4 + 24-core Xeon).
func Figure9(mus, contexts []int) ([]Figure9Cell, error) {
	setting := Settings()["S2"]
	in := setting.Input(workload.MTBench(128))
	e, err := perfmodel.New(in)
	if err != nil {
		return nil, err
	}
	var cells []Figure9Cell
	for _, mu := range mus {
		for _, ctx := range contexts {
			c := e.TaskCosts(perfmodel.Policy{N: mu, Mu: mu}, ctx)
			cells = append(cells, Figure9Cell{
				MicroBatch:   mu,
				Context:      ctx,
				FFN:          c.PostAttn,
				KVTransfer:   c.KVLoad,
				CPUAttention: c.CPUAttn,
			})
		}
	}
	return cells, nil
}

// RenderFigure9 prints one table per micro-batch size.
func RenderFigure9(cells []Figure9Cell) string {
	byMu := map[int][]Figure9Cell{}
	var mus []int
	for _, c := range cells {
		if byMu[c.MicroBatch] == nil {
			mus = append(mus, c.MicroBatch)
		}
		byMu[c.MicroBatch] = append(byMu[c.MicroBatch], c)
	}
	out := ""
	for _, mu := range mus {
		t := metrics.Table{Header: []string{"context", "MoE FFN (s)", "KV transfer (s)", "CPU attention (s)"}}
		for _, c := range byMu[mu] {
			t.Add(c.Context, c.FFN, c.KVTransfer, c.CPUAttention)
		}
		out += fmt.Sprintf("Figure 9: micro-batch %d\n%s\n", mu, t.String())
	}
	return out
}

// --------------------------------------------------------------- Fig 10

// Figure10Cell is one point of the §6.3 hardware sweep.
type Figure10Cell struct {
	CPUScale     float64 // CPU capability multiplier
	LinkGBps     float64 // CPU-GPU bandwidth
	WeightsOnCPU float64 // 1 - r_w
	KVOnCPU      float64 // 1 - r_c
	CPUAttention bool
	Err          error
}

// Figure10 reproduces the policy case study on 2xA100-80G running
// Mixtral 8x7B (prompt 512, generation 32): sweep the CPU scaling ratio
// and CPU-GPU bandwidth and record where the optimizer places weights,
// KV cache and attention.
func Figure10(cpuScales, linkGBps []float64) []Figure10Cell {
	base := hardware.DualA100()
	cfg := model.Mixtral8x7B()
	wl := workload.Config{
		Name: "fig10", AvgPrompt: 512, MaxPrompt: 512, MinPrompt: 512,
		GenLen: 32, NumRequests: 1 << 16,
	}
	var cells []Figure10Cell
	for _, scale := range cpuScales {
		for _, bw := range linkGBps {
			spec := base
			// §6.3 base CPU: 200 GB/s DRAM, 100 GB... the paper scales
			// m_c = 200 GB/s, b_c = 100 GB, p_c = 1.6 TFLOPS by the ratio.
			spec.CPU.MemBandwidth = hardware.GBps(200 * scale)
			spec.CPU.MemBytes = hardware.GiB(100 * scale)
			spec.CPU.PeakFLOPS = hardware.TFLOPS(1.6 * scale)
			spec.Link.Bandwidth = hardware.GBps(bw)
			in := perfmodel.Input{Model: cfg, Spec: spec, Workload: wl}
			res, err := policy.Optimize(in, policy.WithCPUFFNAllowed())
			cell := Figure10Cell{CPUScale: scale, LinkGBps: bw, Err: err}
			if err == nil {
				cell.WeightsOnCPU = 1 - res.Policy.WeightsGPURatio
				cell.KVOnCPU = 0
				if res.Policy.GPUAttn {
					cell.KVOnCPU = 1 - res.Policy.KVGPURatio
				} else {
					cell.KVOnCPU = 1
				}
				cell.CPUAttention = !res.Policy.GPUAttn
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// RenderFigure10 prints the two heatmaps (weights on CPU, KV on CPU)
// with CPU-attention cells marked.
func RenderFigure10(cells []Figure10Cell) string {
	scales := sortedUnique(func(c Figure10Cell) float64 { return c.CPUScale }, cells)
	bws := sortedUnique(func(c Figure10Cell) float64 { return c.LinkGBps }, cells)
	lookup := map[[2]float64]Figure10Cell{}
	for _, c := range cells {
		lookup[[2]float64{c.CPUScale, c.LinkGBps}] = c
	}
	rowLabels := make([]string, len(bws))
	for i, b := range bws {
		rowLabels[i] = fmt.Sprintf("%.0fGB/s", b)
	}
	colLabels := make([]string, len(scales))
	for i, s := range scales {
		colLabels[i] = fmt.Sprintf("%.0f", s)
	}
	grid := func(val func(Figure10Cell) float64) [][]float64 {
		g := make([][]float64, len(bws))
		for i, b := range bws {
			g[i] = make([]float64, len(scales))
			for j, s := range scales {
				c, ok := lookup[[2]float64{s, b}]
				if !ok || c.Err != nil {
					g[i][j] = -1
					continue
				}
				g[i][j] = val(c)
			}
		}
		return g
	}
	out := metrics.Heatmap("Figure 10a: ratio of weights on CPU (rows: CPU-GPU bandwidth, cols: CPU scaling)",
		rowLabels, colLabels, grid(func(c Figure10Cell) float64 { return c.WeightsOnCPU }))
	out += "\n" + metrics.Heatmap("Figure 10b: ratio of KV cache on CPU",
		rowLabels, colLabels, grid(func(c Figure10Cell) float64 { return c.KVOnCPU }))
	out += "\nCPU-attention cells:\n"
	for _, c := range cells {
		if c.CPUAttention {
			out += fmt.Sprintf("  scale=%.0f bw=%.0fGB/s\n", c.CPUScale, c.LinkGBps)
		}
	}
	return out
}

func sortedUnique(key func(Figure10Cell) float64, cells []Figure10Cell) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, c := range cells {
		v := key(c)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

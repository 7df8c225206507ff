package perfmodel

import (
	"strings"
	"testing"
	"testing/quick"

	"moelightning/internal/hardware"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

func s1Input() Input {
	return Input{
		Model:    model.Mixtral8x7B(),
		Spec:     hardware.S1(),
		Workload: workload.MTBench(128),
		Padded:   true,
	}
}

func s1Estimator(t *testing.T) *Estimator {
	t.Helper()
	e, err := New(s1Input())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mlPolicy() Policy {
	return Policy{N: 512, Mu: 64, GPUFFN: true}
}

func TestNewValidatesInput(t *testing.T) {
	in := s1Input()
	in.Model.Layers = 0
	if _, err := New(in); err == nil {
		t.Error("want model validation error")
	}
	in = s1Input()
	in.Spec.NumGPUs = 0
	if _, err := New(in); err == nil {
		t.Error("want spec validation error")
	}
	in = s1Input()
	in.Workload.GenLen = 0
	if _, err := New(in); err == nil {
		t.Error("want workload validation error")
	}
}

func TestPolicyValidate(t *testing.T) {
	cases := []Policy{
		{N: 0, Mu: 1},
		{N: 4, Mu: 8},
		{N: 8, Mu: 4, WeightsGPURatio: 1.5},
		{N: 8, Mu: 4, KVGPURatio: -0.1},
	}
	for i, p := range cases {
		if p.Validate() == nil {
			t.Errorf("case %d: want validation error for %v", i, p)
		}
	}
	if err := mlPolicy().Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

func TestMicroBatches(t *testing.T) {
	if (Policy{N: 100, Mu: 32}).MicroBatches() != 4 {
		t.Error("ceil division")
	}
	if (Policy{N: 0, Mu: 0}).MicroBatches() != 0 {
		t.Error("zero mu")
	}
}

func TestInputContexts(t *testing.T) {
	in := s1Input()
	if in.AvgPrompt() != 418 {
		t.Errorf("padded avg prompt = %d, want max 418", in.AvgPrompt())
	}
	in.Padded = false
	if in.AvgPrompt() != 77 {
		t.Errorf("unpadded avg prompt = %d, want 77", in.AvgPrompt())
	}
	if in.FinalContext() != 77+128 || in.MidContext() != 77+64 {
		t.Error("context math")
	}
}

func TestDecodeLayerCritical(t *testing.T) {
	e := s1Estimator(t)
	lt := e.DecodeLayer(mlPolicy(), 512)
	crit := lt.Critical()
	for _, v := range []float64{lt.HtoD, lt.DtoH, lt.GPU, lt.CPU} {
		if v > crit {
			t.Errorf("lane %v above critical %v", v, crit)
		}
	}
	if crit <= 0 {
		t.Error("non-positive critical time")
	}
	// With weights streamed on a T4, HtoD must dominate this policy.
	if lt.HtoD != crit {
		t.Errorf("expected HtoD-bound decode, got GPU=%v CPU=%v HtoD=%v", lt.GPU, lt.CPU, lt.HtoD)
	}
}

func TestWeightStreamingScalesWithRw(t *testing.T) {
	e := s1Estimator(t)
	p := mlPolicy()
	full := e.DecodeLayer(p, 512).WeightXfer
	p.WeightsGPURatio = 0.5
	half := e.DecodeLayer(p, 512).WeightXfer
	if diff := full/2 - half; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("r_w=0.5 weight transfer = %v, want half of %v", half, full)
	}
}

// TestDecodeLayerChargesWeightsPerMicroBatch: each micro-batch's
// post-attention reads the layer's touched expert weights from HBM
// again. At a fixed μ, twice the micro-batches cost twice the
// post-attention time, and one batch cut into micro-batches costs more
// than the same batch as one.
func TestDecodeLayerChargesWeightsPerMicroBatch(t *testing.T) {
	e := s1Estimator(t)
	four := e.DecodeLayer(Policy{N: 128, Mu: 32, GPUFFN: true}, 512).PostAttn
	eight := e.DecodeLayer(Policy{N: 256, Mu: 32, GPUFFN: true}, 512).PostAttn
	if four <= 0 || eight != 2*four {
		t.Errorf("post-attention over 8 micro-batches = %v, want twice the 4 micro-batches' %v", eight, four)
	}
	whole := e.DecodeLayer(Policy{N: 256, Mu: 256, GPUFFN: true}, 512).PostAttn
	if eight <= whole {
		t.Errorf("256 sequences in 8 micro-batches cost %v of post-attention, want more than the %v of one", eight, whole)
	}
}

func TestGPUAttentionMovesKV(t *testing.T) {
	e := s1Estimator(t)
	p := mlPolicy()
	p.GPUAttn = true
	lt := e.DecodeLayer(p, 512)
	if lt.KVXfer <= 0 || lt.GPUAttn <= 0 {
		t.Error("GPU attention must transfer KV and compute on GPU")
	}
	if lt.CPUAttn != 0 {
		t.Error("no CPU attention when A_g=1")
	}
	// r_c = 1 removes the transfer entirely.
	p.KVGPURatio = 1
	if e.DecodeLayer(p, 512).KVXfer != 0 {
		t.Error("resident KV must not transfer")
	}
}

func TestCPUAttentionTransfersQKVAndHidden(t *testing.T) {
	e := s1Estimator(t)
	lt := e.DecodeLayer(mlPolicy(), 512)
	if lt.CPUAttn <= 0 || lt.QKVXfer <= 0 || lt.HiddenXfer <= 0 {
		t.Error("CPU attention must move QKV down and hidden up")
	}
	if lt.KVXfer != 0 {
		t.Error("CPU attention must not stream the KV cache")
	}
}

func TestDecodeStepGrowsWithContext(t *testing.T) {
	e := s1Estimator(t)
	p := mlPolicy()
	if e.DecodeStepTime(p, 1024) < e.DecodeStepTime(p, 128) {
		t.Error("decode step time must not shrink with context")
	}
}

func TestThroughputReport(t *testing.T) {
	e := s1Estimator(t)
	r := e.Throughput(mlPolicy())
	if r.TokensPerSecond <= 0 {
		t.Fatal("non-positive throughput")
	}
	if r.GeneratedTokens != 512*128 {
		t.Errorf("generated = %d", r.GeneratedTokens)
	}
	if r.PrefillSeconds <= 0 || r.DecodeSeconds <= 0 {
		t.Error("stage costs must be positive")
	}
	if r.Bottleneck == "" {
		t.Error("missing bottleneck label")
	}
}

func TestMemoryModel(t *testing.T) {
	e := s1Estimator(t)
	p := mlPolicy()
	g := e.GPUMem(p)
	if g.WeightBuffer != 2*e.In.Model.LayerWeightBytes() {
		t.Errorf("double buffer = %d, want 2 layers", g.WeightBuffer)
	}
	if g.Embeddings <= 0 || g.Activations <= 0 {
		t.Error("GPU breakdown incomplete")
	}
	c := e.CPUMem(p)
	if c.Weights != e.In.Model.TotalWeightBytes() {
		t.Errorf("CPU weights = %d, want full model at r_w=0", c.Weights)
	}
	if c.KVCache <= 0 {
		t.Error("CPU KV cache missing")
	}
	// r_w moves weights from CPU to GPU.
	p.WeightsGPURatio = 0.5
	if e.GPUMem(p).Weights <= 0 {
		t.Error("static GPU weights missing")
	}
	if e.CPUMem(p).Weights >= c.Weights {
		t.Error("CPU weights must shrink with r_w")
	}
}

func TestFeasible(t *testing.T) {
	e := s1Estimator(t)
	if err := e.Feasible(mlPolicy()); err != nil {
		t.Fatalf("reasonable policy infeasible: %v", err)
	}
	// A batch needing more KV than 192 GB of DRAM can hold.
	big := Policy{N: 3999, Mu: 64, GPUFFN: true}
	err := e.Feasible(big)
	if err == nil {
		t.Fatal("oversized batch accepted")
	}
	if !strings.Contains(err.Error(), "CPU memory") {
		t.Errorf("error should name CPU memory: %v", err)
	}
	// More requests than the workload has.
	if err := e.Feasible(Policy{N: 4001, Mu: 64, GPUFFN: true}); err == nil {
		t.Error("batch above request count accepted")
	}
	// All weights static on a 16 GB GPU cannot fit an 87 GiB model.
	if err := e.Feasible(Policy{N: 64, Mu: 64, GPUFFN: true, WeightsGPURatio: 1}); err == nil {
		t.Error("whole model on T4 accepted")
	} else if !strings.Contains(err.Error(), "GPU memory") {
		t.Errorf("error should name GPU memory: %v", err)
	}
}

func TestCPUMemMonotoneInN(t *testing.T) {
	e := s1Estimator(t)
	f := func(a, b uint16) bool {
		n1, n2 := int(a)+64, int(b)+64
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		p1 := Policy{N: n1, Mu: 64, GPUFFN: true}
		p2 := Policy{N: n2, Mu: 64, GPUFFN: true}
		return e.CPUMem(p1).Total() <= e.CPUMem(p2).Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFigure9Shapes checks the three curves' qualitative behaviour on
// the Fig. 9 hardware (L4): FFN latency ~flat in micro-batch
// (memory-bound), CPU attention linear in context, KV transfer ~3-4x
// CPU attention.
func TestFigure9Shapes(t *testing.T) {
	in := s1Input()
	in.Spec = hardware.S2()
	e, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	// One micro-batch of mu sequences, the whole KV cache on the CPU.
	at := func(mu, context int) TaskCosts { return e.TaskCosts(Policy{N: mu, Mu: mu}, context) }
	f32, f256 := at(32, 512).PostAttn, at(256, 512).PostAttn
	if f256 > 2*f32 {
		t.Errorf("FFN latency grew %vx from mu=32 to 256; should be ~flat (memory-bound)", f256/f32)
	}
	a512, a2048 := at(128, 512).CPUAttn, at(128, 2048).CPUAttn
	if a2048 < 3*a512 {
		t.Errorf("CPU attention not ~linear in context: %v -> %v", a512, a2048)
	}
	ratio := at(128, 1024).KVLoad / at(128, 1024).CPUAttn
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("KV/CPU-attention ratio = %.2f, want 3-4x", ratio)
	}
	// §6.2: at large micro-batch and context, CPU attention overtakes
	// the FFN as the bottleneck.
	if c := at(256, 2048); c.CPUAttn < c.PostAttn {
		t.Error("CPU attention should exceed FFN latency at mu=256 ctx=2048")
	}
	if c := at(32, 128); c.CPUAttn > c.PostAttn {
		t.Error("FFN should dominate at small mu and context")
	}
}

func TestAllReduceOnlyMultiGPU(t *testing.T) {
	e := s1Estimator(t)
	p := Policy{N: 64, Mu: 64, GPUFFN: true}
	if e.TaskCosts(p, 512).AllReduce != 0 {
		t.Error("single GPU must not all-reduce")
	}
	in := s1Input()
	in.Spec = hardware.S7()
	e4, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	if e4.TaskCosts(p, 512).AllReduce <= 0 {
		t.Error("4xT4 must pay all-reduce time")
	}
}

func TestPrefillTimeScalesWithBatch(t *testing.T) {
	e := s1Estimator(t)
	p1, p2 := mlPolicy(), mlPolicy()
	p2.N = 2 * p1.N
	if e.PrefillTime(p2) <= e.PrefillTime(p1) {
		t.Error("prefill must grow with batch")
	}
}

func TestPolicyString(t *testing.T) {
	s := Policy{N: 1, Mu: 1, GPUAttn: true, GPUFFN: true}.String()
	if !strings.Contains(s, "attn=gpu") || !strings.Contains(s, "ffn=gpu") {
		t.Errorf("policy string: %s", s)
	}
}

func TestPinBandwidthHalvesDRAM(t *testing.T) {
	e := s1Estimator(t)
	p := mlPolicy()
	if e.TaskCosts(p, 512).Pin != e.WeightStreamBytes(p)/(e.In.Spec.CPU.SustainedBandwidth()/2) {
		t.Error("pin copy must run at half DRAM bandwidth")
	}
}

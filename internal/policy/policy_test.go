package policy

import (
	"testing"

	"moelightning/internal/hardware"
	"moelightning/internal/model"
	"moelightning/internal/perfmodel"
	"moelightning/internal/workload"
)

func s1Input() perfmodel.Input {
	return perfmodel.Input{
		Model:    model.Mixtral8x7B(),
		Spec:     hardware.S1(),
		Workload: workload.MTBench(128),
		Padded:   true,
	}
}

func TestOptimizeFindsFeasiblePolicy(t *testing.T) {
	res, err := Optimize(s1Input())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := perfmodel.New(s1Input())
	if err := e.Feasible(res.Policy); err != nil {
		t.Fatalf("optimizer returned infeasible policy: %v", err)
	}
	if res.Report.TokensPerSecond <= 0 {
		t.Fatal("non-positive throughput")
	}
	if res.Feasible == 0 || res.Evaluated < res.Feasible {
		t.Errorf("search accounting: %d evaluated, %d feasible", res.Evaluated, res.Feasible)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	a, err := Optimize(s1Input())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(s1Input())
	if err != nil {
		t.Fatal(err)
	}
	if a.Policy != b.Policy {
		t.Fatalf("non-deterministic: %v vs %v", a.Policy, b.Policy)
	}
}

// TestOptimizerPrefersCPUAttentionOnT4 reproduces §4's claim: "for the
// memory-constrained scenarios we target, CPU attention is consistently
// better than GPU attention, according to our performance model".
func TestOptimizerPrefersCPUAttentionOnT4(t *testing.T) {
	res, err := Optimize(s1Input())
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy.GPUAttn {
		t.Errorf("optimizer chose GPU attention on S1: %v", res.Policy)
	}
	if !res.Policy.GPUFFN {
		t.Errorf("optimizer must keep the FFN on GPU for batch workloads: %v", res.Policy)
	}
}

// TestOptimizerBeatsBaselinePolicies: under the true cost model, the
// optimizer's policy must dominate both emulated baseline planners
// (Tab. 5's ordering before schedule effects).
func TestOptimizerBeatsBaselinePolicies(t *testing.T) {
	in := s1Input()
	e, _ := perfmodel.New(in)
	opt, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := FlexGenTheirPolicy(in)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DeepSpeedPolicy(in)
	if err != nil {
		t.Fatal(err)
	}
	optTps := opt.Report.TokensPerSecond
	if fgTps := e.Throughput(fg).TokensPerSecond; optTps <= fgTps {
		t.Errorf("optimizer (%v) not better than FlexGen policy (%v)", optTps, fgTps)
	}
	if dsTps := e.Throughput(ds).TokensPerSecond; optTps <= dsTps {
		t.Errorf("optimizer (%v) not better than DeepSpeed policy (%v)", optTps, dsTps)
	}
}

func TestFlexGenPolicyShape(t *testing.T) {
	fg, err := FlexGenTheirPolicy(s1Input())
	if err != nil {
		t.Fatal(err)
	}
	if !fg.GPUAttn || fg.WeightsGPURatio != 0 || fg.KVGPURatio != 0 {
		t.Errorf("FlexGen policy shape: %v", fg)
	}
	// Tab. 5: small micro-batch (8 on a T4), batch pushed to CPU max.
	if fg.Mu > 16 {
		t.Errorf("FlexGen mu = %d, want small (<= 16, paper uses 8)", fg.Mu)
	}
	if fg.N < 1000 {
		t.Errorf("FlexGen N = %d, want CPU-memory-maximal (paper uses 1112)", fg.N)
	}
}

func TestFlexGenPolicyGrowsMuOnL4(t *testing.T) {
	in := s1Input()
	in.Spec = hardware.S2()
	fg, err := FlexGenTheirPolicy(in)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := FlexGenTheirPolicy(s1Input())
	if err != nil {
		t.Fatal(err)
	}
	if fg.Mu <= t4.Mu {
		t.Errorf("FlexGen mu on L4 (%d) should exceed T4 (%d)", fg.Mu, t4.Mu)
	}
}

func TestDeepSpeedPolicyShape(t *testing.T) {
	ds, err := DeepSpeedPolicy(s1Input())
	if err != nil {
		t.Fatal(err)
	}
	if ds.N != ds.Mu {
		t.Errorf("DeepSpeed must run a single micro-batch: %v", ds)
	}
	if ds.KVGPURatio != 1 || !ds.GPUAttn {
		t.Errorf("DeepSpeed keeps KV on GPU: %v", ds)
	}
	// KV on a 16 GB GPU: batch around a hundred (Tab. 4 reports 102).
	if ds.N < 32 || ds.N > 256 {
		t.Errorf("DeepSpeed N = %d, want ~100", ds.N)
	}
}

func TestFlexGenOurPolicyUsesGPUAttention(t *testing.T) {
	res, err := FlexGenOurPolicy(s1Input())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Policy.GPUAttn {
		t.Errorf("FlexGen-our-policy must keep GPU attention: %v", res.Policy)
	}
}

func TestWithMaxNCapsBatch(t *testing.T) {
	res, err := Optimize(s1Input(), WithMaxN(504))
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy.N > 504 {
		t.Errorf("N = %d exceeds cap 504", res.Policy.N)
	}
}

func TestWithGPUAttnPins(t *testing.T) {
	res, err := Optimize(s1Input(), WithGPUAttn(true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Policy.GPUAttn {
		t.Error("WithGPUAttn(true) ignored")
	}
}

func TestNoFeasiblePolicy(t *testing.T) {
	in := s1Input()
	in.Spec.CPU.MemBytes = hardware.GiB(1) // can't hold the model
	in.Spec.GPU.MemBytes = hardware.GiB(1)
	if _, err := Optimize(in); err == nil {
		t.Error("want ErrNoFeasiblePolicy")
	}
}

// TestMoreGPUMemoryRaisesStaticWeights: Fig. 1 / §4.3 mechanism — with
// more aggregate GPU memory the optimizer pins more weights statically.
func TestMoreGPUMemoryRaisesStaticWeights(t *testing.T) {
	in := s1Input()
	in.Model = model.Mixtral8x22B()
	in.Spec = hardware.S6()
	in.Workload = workload.MTBench(128)
	two, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Spec = hardware.S7()
	four, err := Optimize(in)
	if err != nil {
		t.Fatal(err)
	}
	if four.Policy.WeightsGPURatio < two.Policy.WeightsGPURatio {
		t.Errorf("r_w fell from %v (2xT4) to %v (4xT4)", two.Policy.WeightsGPURatio, four.Policy.WeightsGPURatio)
	}
	if four.Report.TokensPerSecond <= two.Report.TokensPerSecond {
		t.Error("more GPUs must not reduce estimated throughput")
	}
}

func TestNCandidates(t *testing.T) {
	got := nCandidates(32, 100)
	// 32, 64, plus the maximal 100.
	if got[0] != 32 || got[len(got)-1] != 100 {
		t.Errorf("nCandidates = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("not increasing: %v", got)
		}
	}
}

// TestOptimizerUsesDiskOnlyWhenNeeded: the search must reach for the
// disk tier when DRAM cannot hold the model, and must not regress when
// DRAM is plentiful.
func TestOptimizerUsesDiskOnlyWhenNeeded(t *testing.T) {
	small := s1Input()
	small.Spec.Disk = hardware.NVMe(512)
	small.Spec.CPU.MemBytes = hardware.GiB(48)
	res, err := Optimize(small)
	if err != nil {
		t.Fatalf("48 GiB + NVMe should be feasible: %v", err)
	}
	if res.Policy.WeightsDiskRatio <= 0 {
		t.Errorf("small-DRAM policy must use the disk: %v", res.Policy)
	}

	big := s1Input()
	big.Spec.Disk = hardware.NVMe(512)
	withDisk, err := Optimize(big)
	if err != nil {
		t.Fatal(err)
	}
	noDisk, err := Optimize(s1Input())
	if err != nil {
		t.Fatal(err)
	}
	if withDisk.Report.TokensPerSecond < noDisk.Report.TokensPerSecond*0.999 {
		t.Errorf("adding a disk tier must not hurt: %v vs %v",
			withDisk.Report.TokensPerSecond, noDisk.Report.TokensPerSecond)
	}
}

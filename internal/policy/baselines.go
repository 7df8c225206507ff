package policy

import "moelightning/internal/perfmodel"

// Baseline policy makers. These emulate what the baseline systems'
// own planners choose, including their blind spots, so that Tab. 5
// ("FlexGen w/ their policy" vs "w/ our policy") and Fig. 1 can be
// reproduced. The returned policies are then executed under the *true*
// cost model / simulator like any other policy.

// FlexGenTheirPolicy emulates FlexGen's planner:
//   - attention on GPU, KV cache on CPU (r_c = 0), weights on CPU
//     (r_w = 0 in the memory-constrained settings);
//   - μ is the largest micro-batch its over-conservative GPU memory
//     accounting admits (an inflated activation workspace), not the
//     one that saturates the GPU;
//   - batch size is pushed to the CPU-memory maximum to amortize weight
//     transfers (§1: "process as many requests as possible").
func FlexGenTheirPolicy(in perfmodel.Input) (perfmodel.Policy, error) {
	e, err := perfmodel.New(in)
	if err != nil {
		return perfmodel.Policy{}, err
	}

	// FlexGen's planner budgets GPU activation memory very
	// conservatively (it keeps per-layer homes for activations,
	// materializes attention workspaces in f32, and over-reserves
	// against fragmentation); emulate with an inflated workspace
	// estimate, then pick the largest μ that its accounting admits. The
	// factor is calibrated so the planner reproduces FlexGen's published
	// choice of μ=8 for MTBench on a T4 (Tab. 5) while allowing the
	// larger micro-batches it uses on the 24 GB L4 (Tab. 4).
	const workspaceInflation = 24
	muGrid := []int{1, 2, 3, 4, 8, 16, 32, 64, 128}
	mu := 0
	for _, m := range muGrid {
		base := perfmodel.Policy{Mu: m, GPUAttn: true, GPUFFN: true}
		if flexGenGPUFits(e, base, workspaceInflation) && maxFeasibleN(e, base, 1<<20) >= m {
			mu = m
		}
	}
	if mu == 0 {
		return perfmodel.Policy{}, ErrNoFeasiblePolicy
	}
	best := perfmodel.Policy{Mu: mu, GPUAttn: true, GPUFFN: true}
	best.N = maxFeasibleN(e, best, 1<<20)
	return best, nil
}

// flexGenGPUFits applies FlexGen's inflated GPU memory accounting to a
// candidate micro-batch size.
func flexGenGPUFits(e *perfmodel.Estimator, p perfmodel.Policy, inflation float64) bool {
	p.N = p.Mu
	mem := e.GPUMem(p)
	inflated := mem.Total() + int64(float64(mem.Activations)*(inflation-1))
	return inflated <= e.In.Spec.TotalGPUMem()
}

// FlexGenOurPolicy is Tab. 5's "FlexGen w/ our policy": run the real
// optimizer, but constrained to FlexGen's execution model (GPU
// attention; the paper does not enable FlexGen's CPU attention here
// because it is consistently worse, §6.1).
func FlexGenOurPolicy(in perfmodel.Input) (Result, error) {
	return Optimize(in, WithGPUAttn(true))
}

// DeepSpeedPolicy emulates DeepSpeed ZeRO-Inference: weights pinned on
// CPU and streamed layer-by-layer (r_w = 0), the whole batch as a single
// micro-batch (N = μ), attention on GPU with the KV cache resident in
// GPU memory (r_c = 1), batch size limited by GPU memory.
func DeepSpeedPolicy(in perfmodel.Input) (perfmodel.Policy, error) {
	e, err := perfmodel.New(in)
	if err != nil {
		return perfmodel.Policy{}, err
	}
	// Largest single micro-batch whose KV cache fits GPU memory.
	lo, hi := 1, 1<<18
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		p := perfmodel.Policy{N: mid, Mu: mid, GPUAttn: true, GPUFFN: true, KVGPURatio: 1}
		if e.Feasible(p) == nil {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	best := perfmodel.Policy{N: lo, Mu: lo, GPUAttn: true, GPUFFN: true, KVGPURatio: 1}
	if e.Feasible(best) != nil {
		return best, ErrNoFeasiblePolicy
	}
	return best, nil
}

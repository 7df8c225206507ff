// Package perfmodel implements the paper's performance model (§4.2): the
// per-layer decode latency T(M, H, W, P) of Eq. 12, the memory-footprint
// constraints on GPU and CPU, and an end-to-end throughput estimate that
// includes the prefill stage. It is the single source of cost truth for
// the policy optimizer, the HRM plots and the discrete-event simulator:
// a decode layer's costs are one price list, TaskCosts, the seconds of
// each task for one micro-batch. Two compositions read it: DecodeLayer
// sums it onto Eq. 12's lanes, and schedule.PlanFor copies it into the
// simulator's task durations. Input.IntegrateDecode turns either one's
// step cost into the decode stage's.
package perfmodel

import (
	"fmt"

	"moelightning/internal/hardware"
	"moelightning/internal/model"
	"moelightning/internal/roofline"
	"moelightning/internal/workload"
)

// Policy is the 6-tuple (N, μ, A_g, F_g, r_w, r_c) searched by the
// optimizer (Tab. 1, P).
type Policy struct {
	// N is the batch size: sequences processed by one pass of the whole
	// model during decode.
	N int
	// Mu is the micro-batch size: sequences per kernel launch.
	Mu int
	// GPUAttn is A_g: run the attention core (softmax part) on GPU,
	// transferring KV cache up per micro-batch.
	GPUAttn bool
	// GPUFFN is F_g: run the MoE FFN on GPU, streaming expert weights.
	GPUFFN bool
	// WeightsGPURatio is r_w: fraction of weights pinned statically in
	// GPU memory (only meaningful when GPUFFN).
	WeightsGPURatio float64
	// WeightsDiskRatio is r_d: fraction of weights resident on disk and
	// streamed disk -> CPU -> GPU every pass (the §C extension; requires
	// a spec with a disk tier).
	WeightsDiskRatio float64
	// KVGPURatio is r_c: fraction of the KV cache resident in GPU
	// memory (only meaningful when GPUAttn).
	KVGPURatio float64
	// KVBudget is the fraction of the context the attention kernel
	// actually reads (Quest/H2O-style query-aware sparsity, the §C
	// extension). Zero means dense (1.0). Storage is unaffected — the
	// full cache is retained and the kernel selects at read time.
	KVBudget float64
}

// EffectiveKVBudget normalizes the zero value to dense attention.
func (p Policy) EffectiveKVBudget() float64 {
	if p.KVBudget == 0 {
		return 1
	}
	return p.KVBudget
}

// MicroBatches is the number of micro-batches per pass, ⌈N/μ⌉.
func (p Policy) MicroBatches() int {
	if p.Mu <= 0 {
		return 0
	}
	return (p.N + p.Mu - 1) / p.Mu
}

// Validate reports an error for malformed policies.
func (p Policy) Validate() error {
	switch {
	case p.N <= 0 || p.Mu <= 0:
		return fmt.Errorf("perfmodel: non-positive batch sizes N=%d mu=%d", p.N, p.Mu)
	case p.Mu > p.N:
		return fmt.Errorf("perfmodel: micro-batch %d exceeds batch %d", p.Mu, p.N)
	case p.WeightsGPURatio < 0 || p.WeightsGPURatio > 1:
		return fmt.Errorf("perfmodel: r_w out of [0,1]: %f", p.WeightsGPURatio)
	case p.KVGPURatio < 0 || p.KVGPURatio > 1:
		return fmt.Errorf("perfmodel: r_c out of [0,1]: %f", p.KVGPURatio)
	case p.WeightsDiskRatio < 0 || p.WeightsDiskRatio > 1:
		return fmt.Errorf("perfmodel: r_d out of [0,1]: %f", p.WeightsDiskRatio)
	case p.WeightsGPURatio+p.WeightsDiskRatio > 1:
		return fmt.Errorf("perfmodel: r_w + r_d = %f exceeds 1", p.WeightsGPURatio+p.WeightsDiskRatio)
	case p.KVBudget < 0 || p.KVBudget > 1:
		return fmt.Errorf("perfmodel: KV budget out of (0,1]: %f", p.KVBudget)
	}
	return nil
}

func (p Policy) String() string {
	attn, ffn := "cpu", "cpu"
	if p.GPUAttn {
		attn = "gpu"
	}
	if p.GPUFFN {
		ffn = "gpu"
	}
	if p.WeightsDiskRatio > 0 {
		return fmt.Sprintf("N=%d mu=%d attn=%s ffn=%s r_w=%.2f r_c=%.2f r_d=%.2f",
			p.N, p.Mu, attn, ffn, p.WeightsGPURatio, p.KVGPURatio, p.WeightsDiskRatio)
	}
	return fmt.Sprintf("N=%d mu=%d attn=%s ffn=%s r_w=%.2f r_c=%.2f",
		p.N, p.Mu, attn, ffn, p.WeightsGPURatio, p.KVGPURatio)
}

// Input bundles the model, hardware and workload for estimation.
type Input struct {
	Model model.Config
	Spec  hardware.Spec
	// Workload supplies prompt/generation lengths. When Padded, every
	// prompt is charged at MaxPrompt (FlexGen semantics and the paper's
	// (p) variants).
	Workload workload.Config
	Padded   bool

	// Eff supplies the kernel derating pairs for every Eq. 8
	// evaluation. Nil selects the analytic spec curve
	// (AnalyticEfficiency); a calibration table measured from the
	// engine's own benchmarks slots in here without touching the cost
	// arithmetic.
	Eff roofline.EfficiencyModel
	// KVCodec denominates KV-cache traffic and footprints; the zero
	// value is the analytic Model.KVDType convention.
	KVCodec KVCodec
	// Paged switches weight traffic to the engine's PR 6 layout: the
	// shared attention/router prefix of each layer rides the scheduled
	// double-buffer lane once per pass, while expert FFN blocks move
	// through the pager, costing fetch bytes per touched expert scaled
	// by (1 - ExpertHitRatio). Off (the default), weight streaming is
	// the paper's whole-layer model.
	Paged bool
	// ExpertHitRatio is the measured fraction of expert-block
	// acquisitions served warm from the residency pool, in [0,1]. Only
	// meaningful when Paged; zero means every acquisition fetches.
	ExpertHitRatio float64
}

// AvgPrompt is the effective prompt length for capacity and cost math.
func (in Input) AvgPrompt() int {
	if in.Padded {
		return in.Workload.MaxPrompt
	}
	return in.Workload.AvgPrompt
}

// FinalContext is the context length at the end of generation, which
// sizes the KV cache.
func (in Input) FinalContext() int { return in.AvgPrompt() + in.Workload.GenLen }

// MidContext is the context at the generation midpoint, used as the
// representative decode-step cost point.
func (in Input) MidContext() int { return in.AvgPrompt() + in.Workload.GenLen/2 }

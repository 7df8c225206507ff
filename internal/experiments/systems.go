// Package experiments reproduces every table and figure of the paper's
// evaluation (§5-§6). Each experiment driver assembles the systems under
// test, runs the discrete-event simulator over the schedules they use,
// and emits the same rows/series the paper reports.
package experiments

import (
	"fmt"

	"moelightning/internal/perfmodel"
	"moelightning/internal/policy"
	"moelightning/internal/schedule"
)

// ScalingMode is how a system uses multiple GPUs (§4.3, §5.3).
type ScalingMode int

const (
	// TensorParallel shards every layer across all GPUs, aggregating
	// memory, bandwidth and compute — MoE-Lightning's mode.
	TensorParallel ScalingMode = iota
	// PipelineParallel assigns consecutive layers to stages — FlexGen's
	// mode. Within one node it gains almost nothing: each in-flight
	// stage batch needs its own CPU-side KV allocation, so the feasible
	// batch per stage shrinks by the GPU count while per-stage layer
	// time is unchanged (§5.3's "FlexGen fails to scale").
	PipelineParallel
	// DataParallel replicates the model per GPU — DeepSpeed's mode:
	// linear scaling of a small-batch baseline.
	DataParallel
)

// System is one system under test: a policy maker plus the schedule its
// runtime executes.
type System struct {
	Name string
	// Padded reports whether the system pads requests to the batch
	// maximum prompt length (FlexGen and the (p) variants).
	Padded bool
	// Scaling is the system's multi-GPU strategy.
	Scaling ScalingMode
	// Plan produces the policy the system would run for the input.
	Plan func(in perfmodel.Input) (perfmodel.Policy, error)
	// Strategy maps the chosen policy to a pipeline schedule.
	Strategy func(p perfmodel.Policy) schedule.Strategy
}

// The paper's five systems (§5.1 Baselines).

// MoELightning is the full system: optimizer policy + CGOPipe, variable
// prompt lengths (no padding).
func MoELightning() System {
	return System{
		Name:   "MoE-Lightning",
		Padded: false,
		Plan: func(in perfmodel.Input) (perfmodel.Policy, error) {
			res, err := policy.Optimize(in)
			return res.Policy, err
		},
		Strategy: schedule.StrategyFor,
	}
}

// MoELightningP is MoE-Lightning with requests padded to the maximum
// prompt length, for apples-to-apples comparison with FlexGen.
func MoELightningP() System {
	s := MoELightning()
	s.Name = "MoE-Lightning(p)"
	s.Padded = true
	return s
}

// FlexGen is the S4 baseline with its own policy maker.
func FlexGen() System {
	return System{
		Name:     "FlexGen",
		Padded:   true,
		Scaling:  PipelineParallel,
		Plan:     policy.FlexGenTheirPolicy,
		Strategy: func(perfmodel.Policy) schedule.Strategy { return schedule.GPUAttn },
	}
}

// FlexGenC is FlexGen with CPU attention enabled: the S3 schedule.
func FlexGenC() System {
	return System{
		Name:    "FlexGen(c)",
		Padded:  true,
		Scaling: PipelineParallel,
		Plan: func(in perfmodel.Input) (perfmodel.Policy, error) {
			p, err := policy.FlexGenTheirPolicy(in)
			if err != nil {
				return p, err
			}
			p.GPUAttn = false
			return p, nil
		},
		Strategy: func(perfmodel.Policy) schedule.Strategy { return schedule.SerialCPU },
	}
}

// DeepSpeed is the ZeRO-Inference-style baseline.
func DeepSpeed() System {
	return System{
		Name:     "DeepSpeed",
		Padded:   true,
		Scaling:  DataParallel,
		Plan:     policy.DeepSpeedPolicy,
		Strategy: func(perfmodel.Policy) schedule.Strategy { return schedule.Serial },
	}
}

// Baselines returns the paper's comparison set in presentation order.
func Baselines() []System {
	return []System{FlexGen(), FlexGenC(), DeepSpeed(), MoELightningP(), MoELightning()}
}

func (s System) String() string { return fmt.Sprintf("System(%s)", s.Name) }

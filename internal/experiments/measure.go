package experiments

import (
	"fmt"

	"moelightning/internal/perfmodel"
	"moelightning/internal/schedule"
	"moelightning/internal/sim"
)

// Measurement is one simulated end-to-end run of a system on a workload.
type Measurement struct {
	System string
	Policy perfmodel.Policy
	// TokensPerSecond is the paper's generation-throughput metric:
	// generated tokens / (prefill + decode).
	TokensPerSecond float64
	PrefillSeconds  float64
	DecodeSeconds   float64
	GeneratedTokens int
	// DecodeStepSeconds is the simulated steady-state cost of one decode
	// step at mid-generation context.
	DecodeStepSeconds float64
	// Utilization per lane during the mid-generation decode step.
	Utilization map[sim.Lane]float64
	// Err records a planning failure (e.g. model cannot fit).
	Err error
}

// Failed reports whether the system could not run the workload.
func (m Measurement) Failed() bool { return m.Err != nil }

// Run plans and measures a system on the input. The input's Padded flag
// is overridden by the system's own padding behaviour, and multi-GPU
// specs are reshaped per the system's scaling mode.
func Run(s System, in perfmodel.Input) Measurement {
	in, mult := scaleInput(s, in)
	mes := Measurement{System: s.Name}
	p, err := s.Plan(in)
	if err != nil {
		mes.Err = fmt.Errorf("%s: plan: %w", s.Name, err)
		return mes
	}
	m := RunPolicy(s, in, p)
	m.TokensPerSecond *= mult
	m.GeneratedTokens = int(float64(m.GeneratedTokens) * mult)
	return m
}

// scaleInput reshapes a multi-GPU input per the system's scaling mode
// and returns a throughput multiplier.
//
//   - TensorParallel uses the aggregate spec directly (multiplier 1).
//   - PipelineParallel degrades to a single-GPU run whose CPU KV budget
//     is divided by the GPU count: a saturated pipeline keeps one batch
//     in flight per stage, so the per-batch KV allocation shrinks while
//     per-stage layer time is unchanged — net scaling ~1x (§5.3).
//   - DataParallel degrades to a single-GPU run multiplied by the GPU
//     count.
func scaleInput(s System, in perfmodel.Input) (perfmodel.Input, float64) {
	in.Padded = s.Padded
	g := in.Spec.NumGPUs
	if g <= 1 || s.Scaling == TensorParallel {
		return in, 1
	}
	in.Spec.NumGPUs = 1
	in.Spec.Name += "/1gpu"
	switch s.Scaling {
	case PipelineParallel:
		w := in.Model.TotalWeightBytes()
		if free := in.Spec.CPU.MemBytes - w; free > 0 {
			in.Spec.CPU.MemBytes = w + free/int64(g)
		}
		return in, 1
	case DataParallel:
		return in, float64(g)
	}
	return in, 1
}

// RunPolicy measures a system executing a fixed policy.
func RunPolicy(s System, in perfmodel.Input, p perfmodel.Policy) Measurement {
	in.Padded = s.Padded
	mes := Measurement{System: s.Name, Policy: p}
	e, err := perfmodel.New(in)
	if err != nil {
		mes.Err = err
		return mes
	}
	strat := s.Strategy(p)

	// Simulate one decode step at each context the integration asks
	// for; the mid-generation step is the one reported.
	mid := in.MidContext()
	var simErr error
	decode := in.IntegrateDecode(func(ctx int) float64 {
		if simErr != nil {
			return 0
		}
		tasks, err := schedule.Build(strat, schedule.PlanFor(e, p, ctx))
		if err != nil {
			simErr = err
			return 0
		}
		res, err := sim.Run(tasks)
		if err != nil {
			simErr = err
			return 0
		}
		if ctx == mid {
			mes.DecodeStepSeconds = res.Makespan
			mes.Utilization = make(map[sim.Lane]float64, 5)
			for _, l := range sim.Lanes() {
				mes.Utilization[l] = res.Utilization(l)
			}
		}
		return res.Makespan
	})
	if simErr != nil {
		mes.Err = fmt.Errorf("%s: sim: %w", s.Name, simErr)
		return mes
	}
	prefill := e.PrefillTime(p)
	gen := p.N * in.Workload.GenLen

	mes.PrefillSeconds = prefill
	mes.DecodeSeconds = decode
	mes.GeneratedTokens = gen
	if total := prefill + decode; total > 0 {
		mes.TokensPerSecond = float64(gen) / total
	}
	return mes
}

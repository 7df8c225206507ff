// Package moelightning is a Go reproduction of "MoE-Lightning:
// High-Throughput MoE Inference on Memory-constrained GPUs" (Cao et
// al., ASPLOS 2025).
//
// It provides, behind one facade:
//
//   - the Hierarchical Roofline Model (HRM) performance analysis and
//     the policy optimizer that searches the (N, μ, A_g, F_g, r_w, r_c)
//     space under GPU/CPU memory constraints (§3-§4.2 of the paper);
//   - a discrete-event simulator that executes the CGOPipe schedule
//     (and the FlexGen / DeepSpeed baseline schedules) over FIFO
//     hardware lanes, reproducing the paper's end-to-end evaluation;
//   - a streaming serving API over a functional MoE engine — real
//     tensor math at laptop scale. A long-lived Server builds weights
//     and memory arenas once, admits requests continuously, re-runs the
//     paper's Alg. 2 batcher over (deferred + newly arrived) requests
//     at every wave boundary, and streams each token the moment its
//     decode step completes, all verified token-for-token against a
//     sequential reference. Requests are cancelable mid-generation;
//     a canceled sequence frees its KV slot without perturbing any
//     other request's tokens.
//
// Analysis flow (full-size models, no real math):
//
//	sys, _ := moelightning.New(moelightning.Config{
//	    Model:    moelightning.Mixtral8x7B(),
//	    Hardware: moelightning.SettingS1(),
//	    Workload: moelightning.MTBench(128),
//	})
//	plan, _ := sys.Plan()                 // optimal policy via HRM
//	res, _ := sys.Simulate(plan.Policy)   // simulated end-to-end run
//	fmt.Println(res.TokensPerSecond)
//
// Serving flow (tiny models, real float32 math, per-token streams):
//
//	srv, _ := moelightning.NewServer(moelightning.ServerConfig{
//	    Model: moelightning.TinyMoE(),
//	})
//	defer srv.Close()
//	h, _ := srv.Submit(ctx, moelightning.Request{ID: 1, PromptLen: 12, GenLen: 8})
//	for tok := range h.Tokens() {         // tokens stream per decode step
//	    fmt.Println(tok.Index, tok.ID)
//	}
//	fmt.Println(srv.Stats().TokensPerSecond)
//
// RunFunctional remains as a one-shot closed-batch run: it drains a
// queue through the engine's closed-queue Serve.
package moelightning

import (
	"fmt"

	"moelightning/internal/experiments"
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

// Re-exported configuration types. They are aliases, so values returned
// by the preset constructors below interoperate with every method.
type (
	// ModelConfig describes an MoE transformer architecture.
	ModelConfig = model.Config
	// HardwareSpec describes a single-node GPU + CPU configuration.
	HardwareSpec = hardware.Spec
	// WorkloadConfig describes a batch-inference workload.
	WorkloadConfig = workload.Config
	// Policy is the paper's 6-tuple (N, μ, A_g, F_g, r_w, r_c).
	Policy = perfmodel.Policy
	// HRM is the two-level Hierarchical Roofline Model.
	HRM = roofline.HRM
)

// Model presets (public model-card architectures).
func Mixtral8x7B() ModelConfig  { return model.Mixtral8x7B() }
func Mixtral8x22B() ModelConfig { return model.Mixtral8x22B() }
func DBRX() ModelConfig         { return model.DBRX() }

// TinyMoE is a laptop-scale model for the functional engine.
func TinyMoE() ModelConfig { return model.Tiny() }

// Hardware presets: the paper's evaluation settings (Tab. 2).
func SettingS1() HardwareSpec { return hardware.S1() }
func SettingS2() HardwareSpec { return hardware.S2() }
func SettingS6() HardwareSpec { return hardware.S6() }
func SettingS7() HardwareSpec { return hardware.S7() }
func SettingS8() HardwareSpec { return hardware.S8() }
func SettingS9() HardwareSpec { return hardware.S9() }

// Workload presets (Tab. 3).
func MTBench(genLen int) WorkloadConfig  { return workload.MTBench(genLen) }
func SyntheticReasoning() WorkloadConfig { return workload.SyntheticReasoning() }
func SummarizationHELM() WorkloadConfig  { return workload.Summarization() }

// Config assembles a system under test.
type Config struct {
	Model    ModelConfig
	Hardware HardwareSpec
	Workload WorkloadConfig
	// Padded charges every request at the workload's maximum prompt
	// length (FlexGen-compatible padding; the paper's "(p)" variants).
	Padded bool
}

// System is a configured MoE-Lightning instance.
type System struct {
	cfg Config
	est *perfmodel.Estimator
}

// New validates the configuration and returns a System.
func New(cfg Config) (*System, error) {
	est, err := perfmodel.New(perfmodel.Input{
		Model:    cfg.Model,
		Spec:     cfg.Hardware,
		Workload: cfg.Workload,
		Padded:   cfg.Padded,
	})
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, est: est}, nil
}

// Plan is the result of a policy search.
type Plan struct {
	Policy Policy
	// EstimatedTokensPerSecond is the performance model's throughput
	// estimate for the policy.
	EstimatedTokensPerSecond float64
	// Bottleneck names the decode-critical lane.
	Bottleneck string
	// Searched and Feasible count the optimizer's work.
	Searched, Feasible int
}

// Plan searches the policy space (§4.2) and returns the best feasible
// policy for this configuration.
func (s *System) Plan() (Plan, error) {
	res, err := policy.Optimize(s.input())
	if err != nil {
		return Plan{}, err
	}
	return Plan{
		Policy:                   res.Policy,
		EstimatedTokensPerSecond: res.Report.TokensPerSecond,
		Bottleneck:               res.Report.Bottleneck,
		Searched:                 res.Evaluated,
		Feasible:                 res.Feasible,
	}, nil
}

// Feasible reports whether a policy fits this configuration's GPU and
// CPU memories.
func (s *System) Feasible(p Policy) error { return s.est.Feasible(p) }

// Estimate returns the analytic performance-model throughput for a
// policy (the optimizer's view, ideal pipeline).
func (s *System) Estimate(p Policy) (float64, error) {
	if err := s.est.Feasible(p); err != nil {
		return 0, err
	}
	return s.est.Throughput(p).TokensPerSecond, nil
}

// Result is a simulated end-to-end run.
type Result struct {
	Policy          Policy
	TokensPerSecond float64
	PrefillSeconds  float64
	DecodeSeconds   float64
	GeneratedTokens int
	// Utilization per lane name during the mid-generation decode step.
	Utilization map[string]float64
}

// Simulate executes the policy under the schedule MoE-Lightning would
// run (CGOPipe for CPU attention, S4 otherwise) on the discrete-event
// simulator and returns end-to-end generation throughput.
func (s *System) Simulate(p Policy) (Result, error) {
	if err := s.est.Feasible(p); err != nil {
		return Result{}, err
	}
	sys := experiments.MoELightning()
	sys.Padded = s.cfg.Padded
	m := experiments.RunPolicy(sys, s.input(), p)
	if m.Failed() {
		return Result{}, m.Err
	}
	util := make(map[string]float64, len(m.Utilization))
	for lane, v := range m.Utilization {
		util[lane.String()] = v
	}
	return Result{
		Policy:          m.Policy,
		TokensPerSecond: m.TokensPerSecond,
		PrefillSeconds:  m.PrefillSeconds,
		DecodeSeconds:   m.DecodeSeconds,
		GeneratedTokens: m.GeneratedTokens,
		Utilization:     util,
	}, nil
}

// DecodeTrace renders the simulated decode-step schedule as an ASCII
// Gantt chart (Fig. 6 style) for the policy.
func (s *System) DecodeTrace(p Policy, width int) (string, error) {
	if err := s.est.Feasible(p); err != nil {
		return "", err
	}
	in := s.input()
	plan := schedule.PlanFor(s.est, p, in.MidContext())
	tasks, err := schedule.Build(schedule.StrategyFor(p), plan)
	if err != nil {
		return "", err
	}
	res, err := sim.Run(tasks)
	if err != nil {
		return "", err
	}
	return metrics.Gantt(fmt.Sprintf("decode step, policy %v", p), res, width), nil
}

// Roofline returns the Hierarchical Roofline Model for this hardware.
func (s *System) Roofline() HRM { return roofline.FromSpec(s.cfg.Hardware) }

func (s *System) input() perfmodel.Input {
	return perfmodel.Input{
		Model:    s.cfg.Model,
		Spec:     s.cfg.Hardware,
		Workload: s.cfg.Workload,
		Padded:   s.cfg.Padded,
	}
}

package calib

import (
	"fmt"
	"math"

	"moelightning/internal/engine"
	"moelightning/internal/hardware"
	"moelightning/internal/kvcache"
	"moelightning/internal/model"
	"moelightning/internal/perfmodel"
	"moelightning/internal/roofline"
	"moelightning/internal/workload"
)

// Scenario is one standing serve configuration the calibrated model is
// judged against: a closed queue drained through the real engine and,
// in parallel, predicted by perfmodel.Throughput over the same shape.
type Scenario struct {
	Name string
	// Requests closed-queue requests of PromptLen prompt tokens each,
	// generating GenLen tokens, served in micro-batches of Mu sequences.
	Requests, PromptLen, GenLen, Mu int
	KVDtype                         kvcache.DType
}

// StandingScenarios are the fixed shapes `moebench -exp calib` and the
// regression test report predicted-vs-measured error on: one wave at
// each KV codec, and one f32 wave whose time is mostly its prompt pass.
// That wave's 8 x 32 prompt tokens are the largest packed pass a full
// Build harvests, at the same prompt length, so its prompt phase is
// read from the table rather than extrapolated past it.
func StandingScenarios() []Scenario {
	return []Scenario{
		{Name: "wave8-f32", Requests: 8, PromptLen: 12, GenLen: 8,
			Mu: 4, KVDtype: kvcache.F32},
		{Name: "wave8-int8", Requests: 8, PromptLen: 16, GenLen: 8,
			Mu: 4, KVDtype: kvcache.Int8},
		{Name: "prompt32-f32", Requests: 8, PromptLen: 32, GenLen: 8,
			Mu: 4, KVDtype: kvcache.F32},
	}
}

// Workload is the scenario as a perfmodel workload (fixed-length
// prompts, closed queue).
func (sc Scenario) Workload() workload.Config {
	return workload.Config{
		Name:        sc.Name,
		AvgPrompt:   sc.PromptLen,
		MaxPrompt:   sc.PromptLen,
		MinPrompt:   sc.PromptLen,
		GenLen:      sc.GenLen,
		NumRequests: sc.Requests,
	}
}

// Policy is the engine's fixed execution shape in the optimizer's
// vocabulary: whole wave as the batch, CPU attention over the paged
// cache, FFN on the streamed/paged expert weights.
func (sc Scenario) Policy() perfmodel.Policy {
	return perfmodel.Policy{N: sc.Requests, Mu: sc.Mu, GPUFFN: true}
}

// KVCodec is the scenario's cache codec in perfmodel terms.
func (sc Scenario) KVCodec() perfmodel.KVCodec {
	if sc.KVDtype == kvcache.Int8 {
		return perfmodel.KVPagedInt8
	}
	return perfmodel.KVPagedF32
}

// ServeConfig is the ready-to-run engine configuration for the
// scenario: the serve shape policy search emits for its Policy.
func (sc Scenario) ServeConfig() engine.ServeConfig {
	return engine.ServeConfigForPolicy(sc.Policy(), sc.Workload(), sc.KVDtype)
}

// Queue is the scenario's closed request queue.
func (sc Scenario) Queue() []workload.Request {
	reqs := make([]workload.Request, sc.Requests)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, PromptLen: sc.PromptLen, GenLen: sc.GenLen}
	}
	return reqs
}

// PredictServe estimates the scenario's generation throughput through
// the perfmodel seam. eff nil selects the analytic spec curve;
// hitRatio is the expert warm-hit fraction to charge pager traffic at.
func PredictServe(m model.Config, spec hardware.Spec, sc Scenario, eff roofline.EfficiencyModel, hitRatio float64) (perfmodel.Report, error) {
	est, err := perfmodel.New(perfmodel.Input{
		Model:          m,
		Spec:           spec,
		Workload:       sc.Workload(),
		Eff:            eff,
		KVCodec:        sc.KVCodec(),
		Paged:          true,
		ExpertHitRatio: hitRatio,
	})
	if err != nil {
		return perfmodel.Report{}, err
	}
	return est.Throughput(sc.Policy()), nil
}

// MeasureServe drains the scenario's queue through the real engine and
// reports end-to-end generation throughput in tokens/s.
func MeasureServe(m model.Config, seed int64, sc Scenario) (float64, error) {
	res, err := engine.MeasureServe(m, seed, sc.Queue(), sc.ServeConfig())
	if err != nil {
		return 0, err
	}
	if res.Seconds <= 0 || res.GeneratedTokens == 0 {
		return 0, fmt.Errorf("calib: scenario %s generated %d tokens in %fs",
			sc.Name, res.GeneratedTokens, res.Seconds)
	}
	return float64(res.GeneratedTokens) / res.Seconds, nil
}

// ScenarioReport is one scenario's predicted-vs-measured comparison.
type ScenarioReport struct {
	Name string `json:"name"`
	// Throughputs are generated tokens per second.
	MeasuredTPS   float64 `json:"measured_tps"`
	CalibratedTPS float64 `json:"calibrated_tps"`
	AnalyticTPS   float64 `json:"analytic_tps"`
	// Errors are |predicted - measured| / measured.
	CalibratedErr float64 `json:"calibrated_err"`
	AnalyticErr   float64 `json:"analytic_err"`
}

// relErr is |pred-meas|/meas.
func relErr(pred, meas float64) float64 {
	return math.Abs(pred-meas) / meas
}

// Evaluate measures every scenario through the real engine and
// predicts it twice — once through the table, once through the
// analytic spec curve at the same measured hit ratio — so the
// reported error split isolates the efficiency seam.
func Evaluate(t *Table, m model.Config, spec hardware.Spec, seed int64, scenarios []Scenario) ([]ScenarioReport, error) {
	var out []ScenarioReport
	for _, sc := range scenarios {
		meas, err := MeasureServe(m, seed, sc)
		if err != nil {
			return nil, err
		}
		calibrated, err := PredictServe(m, spec, sc, t, t.ExpertHitRatio)
		if err != nil {
			return nil, err
		}
		analytic, err := PredictServe(m, spec, sc, nil, t.ExpertHitRatio)
		if err != nil {
			return nil, err
		}
		out = append(out, ScenarioReport{
			Name:          sc.Name,
			MeasuredTPS:   meas,
			CalibratedTPS: calibrated.TokensPerSecond,
			AnalyticTPS:   analytic.TokensPerSecond,
			CalibratedErr: relErr(calibrated.TokensPerSecond, meas),
			AnalyticErr:   relErr(analytic.TokensPerSecond, meas),
		})
	}
	return out, nil
}

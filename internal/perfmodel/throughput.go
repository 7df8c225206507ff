package perfmodel

// End-to-end throughput estimation. The estimate assumes the ideal
// pipeline (Eq. 12): every lane overlaps perfectly, so a decode step
// costs the bottleneck lane. Schedule-specific bubbles (the difference
// between CGOPipe and the FlexGen/DeepSpeed schedules in Fig. 6) are the
// simulator's job; the optimizer only needs relative policy quality,
// which the ideal model preserves (§4.2).

// Report is an end-to-end throughput estimate.
type Report struct {
	Policy Policy
	// TokensPerSecond is generated tokens / (prefill + decode) — the
	// paper's generation-throughput metric (§5.1).
	TokensPerSecond float64
	// PrefillSeconds and DecodeSeconds are the stage costs for one full
	// batch of N sequences.
	PrefillSeconds float64
	DecodeSeconds  float64
	// GeneratedTokens is N * GenLen.
	GeneratedTokens int
	// Bottleneck names the decode-critical lane at mid-generation.
	Bottleneck string
}

// DecodeTime is the ideal decode stage cost: Eq. 12's step integrated
// over the generation.
func (e *Estimator) DecodeTime(p Policy) float64 {
	return e.In.IntegrateDecode(func(context int) float64 { return e.DecodeStepTime(p, context) })
}

// IntegrateDecode is the decode stage cost as context grows from the
// prompt length to prompt+gen, from the cost of one step at a context
// (the ideal step, or a simulated makespan): Simpson's rule over three
// points. Per-step cost is nearly affine in context, so this is exact
// enough. It asks for the middle context, MidContext, in every case.
func (in Input) IntegrateDecode(step func(context int) float64) float64 {
	s := in.AvgPrompt()
	n := in.Workload.GenLen
	if n <= 1 {
		return step(s)
	}
	t0 := step(s)
	t1 := step(s + n/2)
	t2 := step(s + n)
	return float64(n) / 6 * (t0 + 4*t1 + t2)
}

// Throughput estimates end-to-end generation throughput for policy p.
// It does not check feasibility; call Feasible first.
func (e *Estimator) Throughput(p Policy) Report {
	prefill := e.PrefillTime(p)
	decode := e.DecodeTime(p)
	gen := p.N * e.In.Workload.GenLen

	lt := e.DecodeLayer(p, e.In.MidContext())
	bottleneck := "GPU"
	best := lt.GPU
	for _, c := range []struct {
		name string
		v    float64
	}{{"CPU", lt.CPU}, {"HtoD", lt.HtoD}, {"DtoH", lt.DtoH}} {
		if c.v > best {
			best, bottleneck = c.v, c.name
		}
	}

	total := prefill + decode
	tps := 0.0
	if total > 0 {
		tps = float64(gen) / total
	}
	return Report{
		Policy:          p,
		TokensPerSecond: tps,
		PrefillSeconds:  prefill,
		DecodeSeconds:   decode,
		GeneratedTokens: gen,
		Bottleneck:      bottleneck,
	}
}

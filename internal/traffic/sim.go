package traffic

import (
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/engine"
)

// SimConfig parameterizes a virtual-time admission simulation. It has
// no ordering option: as in the live server, each boundary's order is
// read from the requests (engine.AdmissionOrder), so a trace whose
// events carry TTFT targets is admitted by deadline slack and one
// without them by Alg. 2's length order.
type SimConfig struct {
	// Batch is the wave shape (identical role to the live server's
	// Alg. 2 configuration).
	Batch batching.Config
	// MaxQueuedRequests is the live server's overload bound, applied
	// verbatim (engine.QueueBound): an arrival that would push the
	// queue past it is shed at admission (never queued, a TTFT miss if
	// it carried an SLO). <= 0 disables the bound.
	MaxQueuedRequests int
	// PerPromptToken and PerDecodeStep are the virtual cost model: a
	// wave's prefill takes admitted-prompt-tokens x PerPromptToken, and
	// its decode takes PerDecodeStep for each step of its longest
	// admitted request (engine.EffGenLen). Zero selects 100us and
	// 2ms — roughly the tiny functional engine's shape; only relative
	// magnitudes matter for policy comparison.
	PerPromptToken time.Duration
	PerDecodeStep  time.Duration
}

// SimWave is one simulated wave boundary.
type SimWave struct {
	// Start and End bound the wave on the virtual clock (offsets from
	// the trace start).
	Start, End time.Duration
	// Admitted and Deferred list request IDs in placement order.
	Admitted, Deferred []int
}

// SimReport is the outcome of a virtual-time admission simulation.
type SimReport struct {
	Waves []SimWave
	// TTFT maps request ID to its simulated time-to-first-token.
	TTFT map[int]time.Duration
	// SLO accounting, judged by engine.SLO.Verdict: a shed request
	// fails, so it misses TTFT.
	engine.SLOTally
	// MaxDeferrals is the worst per-request deferral count observed —
	// the measured starvation bound.
	MaxDeferrals int
	// Shed lists requests rejected at arrival, by overload control (the
	// live server's ErrOverloaded) or for fitting no micro-batch.
	Shed []int
}

// SimulateAdmission replays a trace through the engine's wave-boundary
// admission on a virtual clock. It is a pure function of (trace, cfg):
// every boundary is decided by engine.PlanWave and every arrival gated
// by engine.QueueBound — the code the live server runs — so all that
// lives here is the clock and the cost model, and the admitted waves
// are bit-reproducible (the determinism and slack-vs-length-order
// comparisons rest on this).
//
// The cost model is deliberately simple: a wave occupies the server for
// prefill (admitted prompt tokens x PerPromptToken) plus decode
// (PerDecodeStep a step) until its longest admitted request is done —
// each request runs its own GenLen under the wave's, as in the server
// (engine.EffGenLen) — every admitted request's first token lands at
// the end of prefill, and arrivals during the wave queue for the next
// boundary. As in the server, a request no empty micro-batch holds is
// refused at arrival, and a deferred request waits for a boundary with
// room: every arrival is either shed or admitted.
func SimulateAdmission(trace Trace, cfg SimConfig) (SimReport, error) {
	if err := trace.validate(); err != nil {
		return SimReport{}, err
	}
	if err := cfg.Batch.Validate(); err != nil {
		return SimReport{}, err
	}
	perPrompt := cfg.PerPromptToken
	if perPrompt <= 0 {
		perPrompt = 100 * time.Microsecond
	}
	perStep := cfg.PerDecodeStep
	if perStep <= 0 {
		perStep = 2 * time.Millisecond
	}

	// base anchors the items' wall-clock arithmetic at a fixed instant
	// so the simulation is a pure function of the trace.
	base := time.Unix(0, 0)
	rep := SimReport{TTFT: make(map[int]time.Duration)}

	next := 0 // first event not yet arrived
	var pending []engine.AdmissionItem
	var clock time.Duration
	for next < len(trace.Events) || len(pending) > 0 {
		// Admit everything that has arrived by now; if the queue is
		// empty, idle forward to the next arrival.
		if len(pending) == 0 && trace.Events[next].At > clock {
			clock = trace.Events[next].At
		}
		for ; next < len(trace.Events) && trace.Events[next].At <= clock; next++ {
			ev := trace.Events[next]
			// Overload control at arrival, exactly where the live server
			// sheds or refuses: a full queue fails the request fast instead
			// of letting it age toward a blown deadline.
			if engine.QueueBound(cfg.MaxQueuedRequests, len(pending), 1) != nil || !cfg.Batch.Fits(ev.Request.PromptLen) {
				rep.Shed = append(rep.Shed, ev.Request.ID)
				continue
			}
			pending = append(pending, engine.AdmissionItem{Req: ev.Request, Submitted: base.Add(ev.At), SLO: ev.SLO})
		}
		if len(pending) == 0 {
			continue // every arrival was refused
		}

		plan, err := engine.PlanWave(pending, base.Add(clock), cfg.Batch)
		if err != nil {
			return SimReport{}, err
		}
		// The wave occupies [clock, clock+prefill+decode); first tokens
		// land at the end of prefill.
		wave := SimWave{Start: clock}
		var admitted, deferred []engine.AdmissionItem
		promptTokens, steps := 0, 0
		for _, mb := range plan.MicroBatches {
			for _, i := range mb {
				admitted = append(admitted, pending[i])
				wave.Admitted = append(wave.Admitted, pending[i].Req.ID)
				promptTokens += pending[i].Req.PromptLen
				steps = max(steps, engine.EffGenLen(pending[i].Req, cfg.Batch.GenLen))
			}
		}
		prefill := time.Duration(promptTokens) * perPrompt
		wave.End = clock + prefill + time.Duration(steps)*perStep
		for _, it := range admitted {
			rep.TTFT[it.Req.ID] = base.Add(clock + prefill).Sub(it.Submitted)
		}
		for _, i := range plan.Deferred {
			deferred = append(deferred, pending[i])
			wave.Deferred = append(wave.Deferred, pending[i].Req.ID)
			rep.MaxDeferrals = max(rep.MaxDeferrals, pending[i].Deferrals)
		}
		rep.Waves = append(rep.Waves, wave)
		pending = deferred
		clock = wave.End
	}

	// Judge SLOs: every request is judged on its effective GenLen tokens
	// at the cost model's constant decode cadence, and an admitted one on
	// its simulated TTFT. A shed one was refused at arrival: it fails
	// (any error is a TTFT miss; ErrOverloaded stands for either
	// refusal), and misses TPOT too when the cadence exceeds its target.
	for _, ev := range trace.Events {
		var err error
		ttft, admitted := rep.TTFT[ev.Request.ID]
		if !admitted {
			err = engine.ErrOverloaded
		}
		rep.SLOTally.Count(ev.SLO, err, engine.EffGenLen(ev.Request, cfg.Batch.GenLen), ttft, perStep)
	}
	return rep, nil
}

package traffic

import (
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/engine"
)

// SimConfig parameterizes a virtual-time admission simulation.
type SimConfig struct {
	// Batch is the wave shape (identical role to the live server's
	// batchConfig output).
	Batch batching.Config
	// AdmissionPolicy is the live server's queueing policy, applied
	// verbatim: FIFO or deadline-slack ordering, the starvation bound,
	// and the overload bound that sheds an arrival at admission (never
	// queued, a TTFT miss if it carried an SLO).
	engine.AdmissionPolicy
	// PerPromptToken and PerDecodeStep are the virtual cost model: a
	// wave's prefill takes admitted-prompt-tokens x PerPromptToken, and
	// its decode takes GenLen x PerDecodeStep. Zero selects 100us and
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
	// SLO accounting over SLO-bearing requests (dropped = TTFT miss).
	SLORequests, SLOMet, SLOMissTTFT, SLOMissTPOT int
	// MaxDeferrals is the worst per-request deferral count observed —
	// the measured starvation bound.
	MaxDeferrals int
	// Dropped lists requests failed by the no-progress guard (they
	// could not fit any wave two boundaries running).
	Dropped []int
	// Shed lists requests rejected by overload control at arrival (the
	// live server's ErrOverloaded): never queued, never admitted.
	Shed []int
}

// SimulateAdmission replays a trace through the engine's wave-boundary
// admission on a virtual clock. It is a pure function of (trace, cfg):
// every boundary is decided by engine.PlanWave and every arrival gated
// by engine.AdmissionPolicy.QueueBound — the code the live server
// runs — so all that lives here is the clock and the cost model, and
// the admitted waves are bit-reproducible (the determinism and
// FIFO-vs-slack comparisons rest on this).
//
// The cost model is deliberately simple: a wave occupies the server for
// prefill (admitted prompt tokens x PerPromptToken) plus decode (GenLen
// x PerDecodeStep), every admitted request's first token lands at the
// end of prefill, and arrivals during the wave queue for the next
// boundary. As in the server, a deferred set that repeats identically
// across two boundaries is dropped (those requests count as failed), as
// is an entire queue that fits no micro-batch at all.
func SimulateAdmission(trace Trace, cfg SimConfig) (SimReport, error) {
	if err := trace.validate(); err != nil {
		return SimReport{}, err
	}
	if err := cfg.Batch.Validate(); err != nil {
		return SimReport{}, err
	}
	policy := cfg.AdmissionPolicy
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
	failed := make(map[int]bool) // shed or dropped: never got a first token
	drop := func(items []engine.AdmissionItem) {
		for _, it := range items {
			failed[it.Req.ID] = true
			rep.Dropped = append(rep.Dropped, it.Req.ID)
		}
	}

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
			// sheds: a full queue fails the request fast instead of letting
			// it age toward a blown deadline.
			if policy.QueueBound(len(pending), 0, 1, 0) != nil {
				failed[ev.Request.ID] = true
				rep.Shed = append(rep.Shed, ev.Request.ID)
				continue
			}
			pending = append(pending, engine.AdmissionItem{Req: ev.Request, Submitted: base.Add(ev.At), SLO: ev.SLO})
		}

		plan, err := engine.PlanWave(pending, base.Add(clock), policy, cfg.Batch)
		if err != nil {
			return SimReport{}, err
		}
		if len(plan.MicroBatches) == 0 {
			// Nothing fits: the live server fails the whole queue.
			drop(pending)
			pending = nil
			continue
		}
		// The wave occupies [clock, clock+prefill+decode); first tokens
		// land at the end of prefill.
		wave := SimWave{Start: clock}
		var admitted, deferred []engine.AdmissionItem
		promptTokens := 0
		for _, mb := range plan.MicroBatches {
			for _, i := range mb {
				admitted = append(admitted, pending[i])
				wave.Admitted = append(wave.Admitted, pending[i].Req.ID)
				promptTokens += pending[i].Req.PromptLen
			}
		}
		prefill := time.Duration(promptTokens) * perPrompt
		wave.End = clock + prefill + time.Duration(cfg.Batch.GenLen)*perStep
		for _, it := range admitted {
			rep.TTFT[it.Req.ID] = base.Add(clock + prefill).Sub(it.Submitted)
		}
		for _, i := range plan.Deferred {
			deferred = append(deferred, pending[i])
			wave.Deferred = append(wave.Deferred, pending[i].Req.ID)
			rep.MaxDeferrals = max(rep.MaxDeferrals, pending[i].Deferrals)
		}
		rep.Waves = append(rep.Waves, wave)
		if plan.NoProgress {
			drop(deferred)
			deferred = nil
		}
		pending = deferred
		clock = wave.End
	}

	// Judge SLOs: an admitted request's TTFT is simulated; TPOT is the
	// cost model's constant decode cadence. Dropped requests miss TTFT.
	for _, ev := range trace.Events {
		if ev.SLO.IsZero() {
			continue
		}
		rep.SLORequests++
		ttft, admitted := rep.TTFT[ev.Request.ID]
		missTTFT := !admitted || failed[ev.Request.ID] || (ev.SLO.TTFT > 0 && ttft > ev.SLO.TTFT)
		missTPOT := ev.SLO.TPOT > 0 && ev.Request.GenLen > 1 && perStep > ev.SLO.TPOT
		if missTTFT {
			rep.SLOMissTTFT++
		}
		if missTPOT {
			rep.SLOMissTPOT++
		}
		if !missTTFT && !missTPOT {
			rep.SLOMet++
		}
	}
	return rep, nil
}

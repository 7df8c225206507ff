package traffic

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/metrics"
	"moelightning/internal/workload"
)

// SubmitFunc submits one request with its SLO to a live server and
// returns the streaming handle. internal/chaos adapts the engine server
// and examples/trafficburst the public facade to this shape.
type SubmitFunc func(req workload.Request, slo SLO) (*engine.Handle, error)

// RunConfig tunes trace playback.
type RunConfig struct {
	// Speed divides every arrival offset: 2 plays the trace twice as
	// fast. <= 0 means real time (1).
	Speed float64
}

// RequestResult is one request's measured outcome.
type RequestResult struct {
	ID     int
	Cohort string
	// TTFT is submission to first token; TPOT is the mean gap between
	// subsequent tokens (zero when fewer than two tokens arrived).
	TTFT, TPOT time.Duration
	Tokens     int
	Err        error
	SLO        SLO
}

// LatencyMS is a latency summary in milliseconds — the unit every
// serving table in the paper reports.
type LatencyMS struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// SummarizeLatency folds a histogram into a LatencyMS. A nil or empty
// histogram summarizes to zeros.
func SummarizeLatency(h *metrics.Histogram) LatencyMS {
	if h == nil || h.Count() == 0 {
		return LatencyMS{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencyMS{
		Mean: ms(h.Mean()),
		P50:  ms(h.Quantile(0.50)),
		P95:  ms(h.Quantile(0.95)),
		P99:  ms(h.Quantile(0.99)),
	}
}

// CohortSummary aggregates one cohort's outcomes within a Report.
type CohortSummary struct {
	Requests int       `json:"requests"`
	SLOMet   int       `json:"slo_met"`
	TTFT     LatencyMS `json:"ttft_ms"`
	TPOT     LatencyMS `json:"tpot_ms"`
}

// Report is the outcome of playing one trace open-loop against a live
// server.
type Report struct {
	Requests  int
	Completed int
	Failed    int
	// SLO accounting, judged by engine.SLO.Verdict.
	engine.SLOTally
	// OfferedRPS is arrivals over the trace span; GoodputRPS counts only
	// SLO-met requests over the wall-clock run.
	OfferedRPS, GoodputRPS float64
	Elapsed                time.Duration
	TTFT, TPOT             LatencyMS
	Cohorts                map[string]CohortSummary
	Results                []RequestResult
}

// Run plays a trace open-loop against submit: every event is dispatched
// at its arrival offset from its own goroutine — arrivals never wait on
// the server, exactly like production ingress — and each request's
// token stream is timed to first token (TTFT) and across decode steps
// (TPOT). The report judges each request against its own SLO
// (engine.SLO.Verdict), and folds latencies into shared histograms for
// the percentile summary.
func Run(submit SubmitFunc, trace Trace, cfg RunConfig) (Report, error) {
	if submit == nil {
		return Report{}, fmt.Errorf("traffic: Run needs a submit function")
	}
	if err := trace.validate(); err != nil {
		return Report{}, err
	}
	speed := cfg.Speed
	if speed <= 0 {
		speed = 1
	}

	results := make([]RequestResult, len(trace.Events))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ev := range trace.Events {
		wg.Add(1)
		go func(i int, ev Event) {
			defer wg.Done()
			due := start.Add(time.Duration(float64(ev.At) / speed))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			results[i] = play(submit, ev)
		}(i, ev)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{
		Requests:   len(results),
		OfferedRPS: trace.OfferedRPS() * speed,
		Elapsed:    elapsed,
		Cohorts:    make(map[string]CohortSummary),
		Results:    results,
	}
	ttftH, tpotH := metrics.NewLatencyHistogram(), metrics.NewLatencyHistogram()
	cohortH := make(map[string][2]*metrics.Histogram)
	for _, r := range results {
		ch, ok := cohortH[r.Cohort]
		if !ok {
			ch = [2]*metrics.Histogram{metrics.NewLatencyHistogram(), metrics.NewLatencyHistogram()}
			cohortH[r.Cohort] = ch
		}
		cs := rep.Cohorts[r.Cohort]
		cs.Requests++
		if r.Err != nil {
			rep.Failed++
		} else {
			rep.Completed++
		}
		if r.Tokens > 0 {
			ttftH.Observe(r.TTFT)
			ch[0].Observe(r.TTFT)
		}
		if r.Tokens > 1 {
			tpotH.Observe(r.TPOT)
			ch[1].Observe(r.TPOT)
		}
		if rep.SLOTally.Count(r.SLO, r.Err, r.Tokens, r.TTFT, r.TPOT) {
			cs.SLOMet++
		}
		rep.Cohorts[r.Cohort] = cs
	}
	rep.TTFT, rep.TPOT = SummarizeLatency(ttftH), SummarizeLatency(tpotH)
	for name, hs := range cohortH {
		cs := rep.Cohorts[name]
		cs.TTFT, cs.TPOT = SummarizeLatency(hs[0]), SummarizeLatency(hs[1])
		rep.Cohorts[name] = cs
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.GoodputRPS = float64(rep.SLOMet) / secs
	}
	return rep, nil
}

// play submits one event and measures its stream.
func play(submit SubmitFunc, ev Event) RequestResult {
	res := RequestResult{ID: ev.Request.ID, Cohort: ev.Cohort, SLO: ev.SLO}
	submitted := time.Now()
	h, err := submit(ev.Request, ev.SLO)
	if err != nil {
		res.Err = err
		return res
	}
	var first, last time.Time
	for range h.Tokens() {
		now := time.Now()
		if res.Tokens == 0 {
			first = now
		}
		last = now
		res.Tokens++
	}
	if _, err := h.Wait(); err != nil {
		res.Err = err
	}
	if res.Tokens > 0 {
		res.TTFT = first.Sub(submitted)
	}
	if res.Tokens > 1 {
		res.TPOT = last.Sub(first) / time.Duration(res.Tokens-1)
	}
	return res
}

// CohortNames returns the report's cohorts in stable (sorted) order for
// printing.
func (r Report) CohortNames() []string {
	names := make([]string, 0, len(r.Cohorts))
	for name := range r.Cohorts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes v as indented JSON to path (the chaos experiment's
// -json report).
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

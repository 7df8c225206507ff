package traffic

import (
	"fmt"
	"time"

	"moelightning/internal/workload"
)

// Event is one timed request in a trace.
type Event struct {
	// At is the arrival offset from the trace's start.
	At time.Duration
	// Cohort names the cohort the request was drawn from.
	Cohort string
	// Request is the concrete request (ID, prompt length, gen length,
	// and — for cohorts with a system prompt — the shared-prefix id and
	// token length, so a played trace exercises prefix reuse).
	Request workload.Request
	// SLO is the request's latency target (zero = best effort).
	SLO SLO
}

// Trace is an open-loop request timeline regenerated from its seed:
// the full output of Scenario.Generate for one seed, so the same seed
// always plays the same requests at the same offsets.
type Trace struct {
	Scenario string
	Arrival  string
	Seed     int64
	Events   []Event
}

// Span is the arrival window: the offset of the last event.
func (t Trace) Span() time.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].At
}

// OfferedRPS is the trace's realized offered load over its span.
func (t Trace) OfferedRPS() float64 {
	span := t.Span().Seconds()
	if span <= 0 {
		return 0
	}
	return float64(len(t.Events)) / span
}

// CohortCounts tallies events per cohort.
func (t Trace) CohortCounts() map[string]int {
	counts := make(map[string]int)
	for _, ev := range t.Events {
		counts[ev.Cohort]++
	}
	return counts
}

// validate checks the trace's shape: arrivals in order, every request
// with a prompt and a generation, every prefix inside its prompt. Run
// and SimulateAdmission refuse a trace that fails it.
func (t Trace) validate() error {
	prev := time.Duration(-1)
	for i, ev := range t.Events {
		if ev.At < prev {
			return fmt.Errorf("traffic: trace %s: event %d arrives at %v before its predecessor", t.Scenario, i, ev.At)
		}
		if ev.Request.PromptLen <= 0 || ev.Request.GenLen <= 0 {
			return fmt.Errorf("traffic: trace %s: event %d has empty prompt or generation", t.Scenario, i)
		}
		if ev.Request.PrefixLen < 0 || ev.Request.PrefixLen > ev.Request.PromptLen {
			return fmt.Errorf("traffic: trace %s: event %d has prefix %d outside its %d-token prompt",
				t.Scenario, i, ev.Request.PrefixLen, ev.Request.PromptLen)
		}
		prev = ev.At
	}
	return nil
}

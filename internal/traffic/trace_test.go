package traffic

import (
	"reflect"
	"testing"
	"time"

	"moelightning/internal/workload"
)

func eventReq(id, prompt, gen int) workload.Request {
	return workload.Request{ID: id, PromptLen: prompt, GenLen: gen}
}

// TestGenerateDeterministic: the same seed yields an identical
// trace; a different seed yields a different one.
func TestGenerateDeterministic(t *testing.T) {
	scn := BurstyMix(10, 120)
	a, err := scn.Generate(2024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scn.Generate(2024)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, err := scn.Generate(2025)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestTraceCarriesCohortSLOs: every generated chat event carries the
// chat cohort's SLO, a 400ms TTFT target, and the trace passes the
// shape check Run applies.
func TestTraceCarriesCohortSLOs(t *testing.T) {
	tr, err := PoissonChat(12, 60).Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.validate(); err != nil {
		t.Fatalf("generated trace rejected: %v", err)
	}
	for i, ev := range tr.Events {
		if ev.Cohort == "chat" && ev.SLO.TTFT != 400*time.Millisecond {
			t.Fatalf("event %d: chat TTFT target %v, want 400ms", i, ev.SLO.TTFT)
		}
	}
	if tr.CohortCounts()["chat"] == 0 {
		t.Error("no chat event drawn")
	}
}

// TestTraceCohortMix: generated cohort shares track the configured
// weights, request IDs are sequential, and shapes respect cohort
// bounds.
func TestTraceCohortMix(t *testing.T) {
	scn := BurstyMix(20, 800)
	tr, err := scn.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.CohortCounts()
	// chat:rag:agentic:summarize = 4:2:3:1 → chat should dominate and
	// summarize should be the smallest share.
	if counts["chat"] <= counts["rag"] || counts["chat"] <= counts["summarize"] {
		t.Errorf("cohort mix off: %v", counts)
	}
	if counts["summarize"] == 0 {
		t.Error("summarize cohort never sampled over 800 requests")
	}
	shapes := map[string][2]int{ // min, max prompt bounds per cohort
		"chat": {3, 24}, "rag": {14, 44}, "agentic": {2, 10}, "summarize": {24, 52},
	}
	sysPrompt := map[string]int{ // cohorts carrying a shared system prompt
		"chat": ChatCohort().SystemPromptTokens, "agentic": AgenticCohort().SystemPromptTokens,
	}
	for i, ev := range tr.Events {
		if ev.Request.ID != i+1 {
			t.Fatalf("event %d has ID %d, want sequential", i, ev.Request.ID)
		}
		b, sys := shapes[ev.Cohort], sysPrompt[ev.Cohort]
		if ev.Request.PromptLen < b[0]+sys || ev.Request.PromptLen > b[1]+sys {
			t.Fatalf("%s prompt %d outside [%d,%d]", ev.Cohort, ev.Request.PromptLen, b[0]+sys, b[1]+sys)
		}
		if sys > 0 {
			if ev.Request.PrefixID != prefixID(ev.Cohort) || ev.Request.PrefixLen != sys {
				t.Fatalf("%s event %d: prefix (%d,%d), want (%d,%d)",
					ev.Cohort, i, ev.Request.PrefixID, ev.Request.PrefixLen, prefixID(ev.Cohort), sys)
			}
		} else if ev.Request.PrefixID != 0 || ev.Request.PrefixLen != 0 {
			t.Fatalf("%s event %d: unexpected prefix (%d,%d)",
				ev.Cohort, i, ev.Request.PrefixID, ev.Request.PrefixLen)
		}
	}
}

// TestCohortSystemPrompt: cohorts with SystemPromptTokens stamp a
// stable nonzero PrefixID per cohort name (distinct across cohorts),
// regenerated traces are bit-identical, and the bounds validator
// rejects a prefix longer than its prompt.
func TestCohortSystemPrompt(t *testing.T) {
	if prefixID("chat") == prefixID("agentic") {
		t.Fatal("distinct cohorts hashed to the same prefix id")
	}
	if prefixID("chat") <= 0 {
		t.Fatalf("prefix id %d not positive", prefixID("chat"))
	}
	scn := PoissonChat(10, 80)
	a, err := scn.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scn.Generate(11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different prefix-carrying traces")
	}
	// Every event in this scenario belongs to a system-prompt cohort and
	// must count the prefix inside its prompt.
	for i, ev := range a.Events {
		if ev.Request.PrefixLen <= 0 || ev.Request.PrefixLen >= ev.Request.PromptLen {
			t.Fatalf("event %d: prefix %d not inside %d-token prompt", i, ev.Request.PrefixLen, ev.Request.PromptLen)
		}
	}
	// A trace claiming a prefix longer than its prompt fails validation.
	bad := Trace{Scenario: "x", Events: []Event{{
		Request: workload.Request{ID: 1, PromptLen: 4, GenLen: 2, PrefixID: 3, PrefixLen: 9},
	}}}
	if err := bad.validate(); err == nil {
		t.Error("prefix longer than prompt passed validation")
	}
}

// TestTraceValidateRejectsBadTraces: validation, which Run and
// SimulateAdmission apply before playing a trace, rejects out-of-order
// and empty-shape events.
func TestTraceValidateRejectsBadTraces(t *testing.T) {
	bad := []Trace{
		{Scenario: "x", Events: []Event{
			{At: time.Second, Request: eventReq(1, 4, 2)},
			{At: 0, Request: eventReq(2, 4, 2)},
		}},
		{Scenario: "x", Events: []Event{{At: 0, Request: eventReq(1, 0, 2)}}},
	}
	for i, tr := range bad {
		if err := tr.validate(); err == nil {
			t.Errorf("case %d: bad trace passed validation", i)
		}
	}
}

// TestScenarioValidation: malformed scenarios are rejected.
func TestScenarioValidation(t *testing.T) {
	good := PoissonChat(5, 10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []Scenario{
		{}, // empty
		{Name: "x", Arrival: Poisson{RPS: 1}, NumRequests: 10},                                 // no cohorts
		{Name: "x", Arrival: Poisson{}, Cohorts: good.Cohorts, NumRequests: 10},                // bad process
		{Name: "x", Arrival: Poisson{RPS: 1}, Cohorts: []Cohort{{Name: "c"}}, NumRequests: 10}, // bad cohort
	}
	for i, scn := range cases {
		if err := scn.Validate(); err == nil {
			t.Errorf("case %d: invalid scenario accepted", i)
		}
	}
}

package traffic

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/engine"
	"moelightning/internal/workload"
)

func simBatch() batching.Config {
	return batching.Config{
		NumMicroBatches: 2,
		MicroBatchSize:  2,
		GenLen:          8,
		TokenBytes:      1,
		CacheBytes:      128,
	}
}

// withoutTargets is the trace with every SLO hidden: admission, which
// reads only what each request carries, orders it by Alg. 2's length
// order instead of by deadline slack.
func withoutTargets(tr Trace) Trace {
	tr.Events = append([]Event(nil), tr.Events...)
	for i := range tr.Events {
		tr.Events[i].SLO = SLO{}
	}
	return tr
}

// targetsShown lists the two admission orders a trace can ask for: by
// deadline slack (its TTFT targets visible) and by length (hidden).
var targetsShown = []bool{true, false}

// TestSimulateDeterministic: the same seed yields identical admitted
// waves, with the trace's targets shown and hidden — the trace-to-waves
// path is a pure function.
func TestSimulateDeterministic(t *testing.T) {
	scn := BurstyMix(15, 80)
	for _, targets := range targetsShown {
		var reps []SimReport
		for k := 0; k < 2; k++ {
			tr, err := scn.Generate(2024)
			if err != nil {
				t.Fatal(err)
			}
			if !targets {
				tr = withoutTargets(tr)
			}
			rep, err := SimulateAdmission(tr, SimConfig{Batch: simBatch()})
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		if !reflect.DeepEqual(reps[0].Waves, reps[1].Waves) {
			t.Errorf("targets %v: same seed produced different admitted waves", targets)
		}
		if !reflect.DeepEqual(reps[0].TTFT, reps[1].TTFT) {
			t.Errorf("targets %v: same seed produced different TTFTs", targets)
		}
	}
}

// judge tallies a simulation's outcome against the trace's own SLOs
// by SimulateAdmission's rule: an admitted request on its simulated
// TTFT and GenLen tokens at the step cadence, a shed one as failed. It
// judges a run whose admission saw the targets hidden.
func judge(tr Trace, rep SimReport, step time.Duration) engine.SLOTally {
	var tally engine.SLOTally
	for _, ev := range tr.Events {
		var err error
		ttft, admitted := rep.TTFT[ev.Request.ID]
		if !admitted {
			err = engine.ErrOverloaded
		}
		tally.Count(ev.SLO, err, ev.Request.GenLen, ttft, step)
	}
	return tally
}

// TestSlackBeatsFIFOOnBurstyMix: on the bursty mixed-SLO scenario,
// admission by deadline slack misses fewer TTFT targets than Alg. 2's
// length order. The length-order run is the same trace with its targets
// hidden from admission, judged against the targets afterwards. The
// length sort places long summarize/RAG prompts first when a burst
// piles the queue up, so tight-deadline chat/agentic requests defer
// exactly when they can least afford it; slack order admits them first
// instead.
func TestSlackBeatsFIFOOnBurstyMix(t *testing.T) {
	// PerDecodeStep 10ms puts the 2x2 wave's capacity just under the
	// bursty mix's burst-state rate: transiently overloaded, the regime
	// where admission order decides outcomes. (Far below, every order
	// meets every target; far above, every order drowns.)
	scn := BurstyMix(15, 150)
	tr, err := scn.Generate(2024)
	if err != nil {
		t.Fatal(err)
	}
	step := 10 * time.Millisecond
	cfg := SimConfig{Batch: simBatch(), PerDecodeStep: step}
	lengthRep, err := SimulateAdmission(withoutTargets(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	slackRep, err := SimulateAdmission(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	length, slack := judge(tr, lengthRep, step), judge(tr, slackRep, step)
	if slack != slackRep.SLOTally {
		t.Fatalf("judge %+v disagrees with the simulator's own tally %+v", slack, slackRep.SLOTally)
	}
	if length.SLORequests != slack.SLORequests || length.SLORequests == 0 {
		t.Fatalf("SLO populations differ: length %d, slack %d", length.SLORequests, slack.SLORequests)
	}
	t.Logf("length order: met %d/%d (ttft misses %d), slack order: met %d/%d (ttft misses %d)",
		length.SLOMet, length.SLORequests, length.SLOMissTTFT,
		slack.SLOMet, slack.SLORequests, slack.SLOMissTTFT)
	if slack.SLOMissTTFT >= length.SLOMissTTFT {
		t.Errorf("slack order did not reduce TTFT misses: length %d, slack %d",
			length.SLOMissTTFT, slack.SLOMissTTFT)
	}
	if slack.SLOMet <= length.SLOMet {
		t.Errorf("slack order did not improve SLO attainment: length %d, slack %d",
			length.SLOMet, slack.SLOMet)
	}
}

// TestSimMatchesEngineOrdering: the simulator orders by the engine's
// AdmissionOrder verbatim — spot-check that a queue's first
// simulated admit is the engine's most urgent item.
func TestSimMatchesEngineOrdering(t *testing.T) {
	base := time.Unix(0, 0)
	events := []Event{
		{At: 0, Cohort: "a", Request: workload.Request{ID: 1, PromptLen: 8, GenLen: 4}, SLO: SLO{TTFT: time.Second}},
		{At: 0, Cohort: "b", Request: workload.Request{ID: 2, PromptLen: 8, GenLen: 4}, SLO: SLO{TTFT: 100 * time.Millisecond}},
		{At: 0, Cohort: "c", Request: workload.Request{ID: 3, PromptLen: 8, GenLen: 4}},
	}
	items := make([]engine.AdmissionItem, len(events))
	for i, ev := range events {
		items[i] = engine.AdmissionItem{Submitted: base.Add(ev.At), SLO: ev.SLO}
	}
	order := engine.AdmissionOrder(items, base)
	if events[order[0]].Request.ID != 2 {
		t.Fatalf("engine ordering puts ID %d first, want the 100ms-TTFT request", events[order[0]].Request.ID)
	}
	rep, err := SimulateAdmission(Trace{Scenario: "x", Events: events}, SimConfig{
		Batch: batching.Config{NumMicroBatches: 1, MicroBatchSize: 1, GenLen: 4, TokenBytes: 1, CacheBytes: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Waves) == 0 || len(rep.Waves[0].Admitted) == 0 || rep.Waves[0].Admitted[0] != 2 {
		t.Fatalf("first simulated admit %v, want request 2", rep.Waves)
	}
}

// TestSimRefusesUnplaceableArrival: as the live server refuses at
// Submit a request no empty micro-batch holds, the simulator sheds it at
// arrival — alone at its boundary it forms no wave — and serves the rest.
func TestSimRefusesUnplaceableArrival(t *testing.T) {
	events := []Event{
		{At: 0, Cohort: "a", Request: workload.Request{ID: 1, PromptLen: 100, GenLen: 4}},
		{At: time.Second, Cohort: "a", Request: workload.Request{ID: 2, PromptLen: 8, GenLen: 4}},
	}
	rep, err := SimulateAdmission(Trace{Scenario: "x", Events: events}, SimConfig{
		Batch: batching.Config{NumMicroBatches: 1, MicroBatchSize: 1, GenLen: 4, TokenBytes: 1, CacheBytes: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Shed, []int{1}) {
		t.Errorf("shed %v, want request 1 shed", rep.Shed)
	}
	if len(rep.Waves) != 1 || !reflect.DeepEqual(rep.Waves[0].Admitted, []int{2}) {
		t.Errorf("waves %+v, want one wave of request 2", rep.Waves)
	}
}

// TestSimWaveEndsWithLongestRequest: as in the server, a wave lasts
// until its longest admitted request is done, each request running its
// own GenLen under the wave's length of 8 (a longer one is capped).
func TestSimWaveEndsWithLongestRequest(t *testing.T) {
	for _, tc := range []struct {
		genLens []int
		steps   int
	}{{[]int{2, 2}, 2}, {[]int{2, 5}, 5}, {[]int{2, 20}, 8}} {
		var events []Event
		for i, g := range tc.genLens {
			events = append(events, Event{Cohort: "a", Request: workload.Request{ID: i + 1, PromptLen: 8, GenLen: g}})
		}
		rep, err := SimulateAdmission(Trace{Scenario: "x", Events: events}, SimConfig{
			Batch:          batching.Config{NumMicroBatches: 1, MicroBatchSize: 2, GenLen: 8, TokenBytes: 1, CacheBytes: 64},
			PerPromptToken: time.Millisecond, PerDecodeStep: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 16*time.Millisecond + time.Duration(tc.steps)*10*time.Millisecond
		if len(rep.Waves) != 1 || rep.Waves[0].End != want {
			t.Errorf("GenLens %v: waves %+v, want one wave ending at %v (%d steps)", tc.genLens, rep.Waves, want, tc.steps)
		}
	}
}

// p95TTFT is the 95th-percentile TTFT over a report's admitted
// requests (sorted nearest-rank on the deterministic simulated values).
func p95TTFT(t *testing.T, rep SimReport) time.Duration {
	t.Helper()
	if len(rep.TTFT) == 0 {
		t.Fatal("no admitted requests to take a percentile over")
	}
	vals := make([]time.Duration, 0, len(rep.TTFT))
	for _, d := range rep.TTFT {
		vals = append(vals, d)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[int(0.95*float64(len(vals)-1))]
}

// TestSimOverloadShedBoundsAdmittedTTFT is the overload-control
// acceptance criterion on the deterministic virtual clock: at 2x the
// knee arrival rate, a MaxQueuedRequests bound sheds load — and the
// requests it does admit keep a p95 TTFT within 3x of the at-knee p95,
// where the unbounded queue lets admitted latency grow without limit.
func TestSimOverloadShedBoundsAdmittedTTFT(t *testing.T) {
	// PerDecodeStep 10ms puts the 2x2 wave's service rate at the bursty
	// mix's knee for kneeRPS (same calibration as the slack-vs-length
	// test); doubling the arrival rate is then genuine 2x overload.
	const kneeRPS, n = 15, 150
	step := 10 * time.Millisecond
	atKnee, err := BurstyMix(kneeRPS, n).Generate(2024)
	if err != nil {
		t.Fatal(err)
	}
	overload, err := BurstyMix(2*kneeRPS, n).Generate(2024)
	if err != nil {
		t.Fatal(err)
	}
	base := SimConfig{Batch: simBatch(), PerDecodeStep: step}
	knee, err := SimulateAdmission(atKnee, base)
	if err != nil {
		t.Fatal(err)
	}
	bounded := base
	bounded.MaxQueuedRequests = 8
	shedding, err := SimulateAdmission(overload, bounded)
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := SimulateAdmission(overload, base)
	if err != nil {
		t.Fatal(err)
	}

	if len(shedding.Shed) == 0 {
		t.Fatal("2x-knee load with a bounded queue shed nothing")
	}
	if len(unbounded.Shed) != 0 {
		t.Fatalf("unbounded queue shed %d requests", len(unbounded.Shed))
	}
	pKnee := p95TTFT(t, knee)
	pShed := p95TTFT(t, shedding)
	pOpen := p95TTFT(t, unbounded)
	t.Logf("p95 TTFT: at knee %v, 2x bounded %v (%d shed), 2x unbounded %v",
		pKnee, pShed, len(shedding.Shed), pOpen)
	if pShed > 3*pKnee {
		t.Errorf("bounded-queue admitted p95 TTFT %v exceeds 3x the at-knee p95 %v", pShed, pKnee)
	}
	if pShed >= pOpen {
		t.Errorf("shedding did not improve admitted p95 TTFT: bounded %v, unbounded %v", pShed, pOpen)
	}
}

// TestSimEveryArrivalAdmittedOrShed: a deferred request waits for a
// boundary with room, so every arrival is either shed at the queue
// bound or admitted — with the trace's targets shown and hidden, at the
// knee and at 2x it, with and without a bound.
func TestSimEveryArrivalAdmittedOrShed(t *testing.T) {
	const n = 150
	step := 10 * time.Millisecond
	for _, rps := range []float64{15, 30} {
		tr, err := BurstyMix(rps, n).Generate(2024)
		if err != nil {
			t.Fatal(err)
		}
		for _, targets := range targetsShown {
			played := tr
			if !targets {
				played = withoutTargets(tr)
			}
			for _, bound := range []int{0, 8} {
				rep, err := SimulateAdmission(played, SimConfig{
					Batch:             simBatch(),
					MaxQueuedRequests: bound,
					PerDecodeStep:     step,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := len(rep.TTFT) + len(rep.Shed); got != len(tr.Events) {
					t.Errorf("%v rps, targets %v, bound %d: %d admitted + %d shed != %d arrivals",
						rps, targets, bound, len(rep.TTFT), len(rep.Shed), len(tr.Events))
				}
			}
		}
	}
}

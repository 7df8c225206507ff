package engine

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/workload"
)

// TestPlanWave pins the wave-boundary decision the live server and the
// traffic simulator share: ordering, placement mapping, deferral
// bookkeeping and the no-progress verdict, one row per rule.
func TestPlanWave(t *testing.T) {
	base := time.Unix(0, 0)
	item := func(id, prompt int) AdmissionItem {
		return AdmissionItem{Req: workload.Request{ID: id, PromptLen: prompt, GenLen: 2}, Submitted: base}
	}
	slo := func(it AdmissionItem, ttft time.Duration) AdmissionItem {
		it.SLO = SLO{TTFT: ttft}
		return it
	}
	deferred := func(it AdmissionItem, deferrals, with int) AdmissionItem {
		it.Deferrals, it.DeferredWith = deferrals, with
		return it
	}
	shape := func(numMB, size, cache int) batching.Config {
		return batching.Config{NumMicroBatches: numMB, MicroBatchSize: size, GenLen: 2, CacheTokens: cache}
	}
	slack := AdmissionPolicy{SLOAware: true, StarvationWaves: 3}

	later := item(4, 4)
	later.Submitted = base.Add(time.Millisecond)

	for _, tc := range []struct {
		name   string
		items  []AdmissionItem
		policy AdmissionPolicy
		bc     batching.Config
		// want: micro-batches and deferred set as item indices, the
		// no-progress verdict, and each deferred item's history
		// {Deferrals, DeferredWith} after the plan.
		mbs        [][]int
		deferred   []int
		noProgress bool
		history    [][2]int
	}{
		{
			name:  "fifo places longest prompts first and defers the rest",
			items: []AdmissionItem{item(1, 5), item(2, 9), item(3, 7)},
			bc:    shape(1, 2, 64),
			mbs:   [][]int{{1, 2}}, deferred: []int{0}, history: [][2]int{{1, 1}},
		},
		{
			// Starved first, then ascending TTFT slack, then the
			// deadline-free in submission order.
			name: "slack places most urgent first",
			items: []AdmissionItem{
				slo(item(1, 4), time.Second),
				item(2, 4),
				slo(item(3, 4), 100*time.Millisecond),
				later,
				deferred(slo(item(5, 4), 10*time.Second), 5, 0),
				slo(item(6, 4), 500*time.Millisecond),
			},
			policy: slack,
			bc:     shape(1, 6, 64),
			mbs:    [][]int{{4, 2, 5, 0, 1, 3}},
		},
		{
			name:  "duplicate ids map back first come first placed",
			items: []AdmissionItem{item(7, 5), item(7, 5), item(8, 9)},
			bc:    shape(1, 2, 64),
			mbs:   [][]int{{2, 0}}, deferred: []int{1}, history: [][2]int{{1, 1}},
		},
		{
			// 24+2 fits a 40-token micro-batch alone or with one short
			// request; the shorts' blown 1ms budgets outrank its 10s.
			name: "slack defers the slack-rich request",
			items: []AdmissionItem{
				deferred(slo(item(1, 24), 10*time.Second), 1, 3),
				slo(item(2, 6), time.Millisecond), slo(item(3, 6), time.Millisecond),
			},
			policy: AdmissionPolicy{SLOAware: true, StarvationWaves: 2},
			bc:     shape(1, 2, 40),
			mbs:    [][]int{{1, 2}}, deferred: []int{0}, history: [][2]int{{2, 1}},
		},
		{
			name: "starvation bound promotes it ahead of any deadline",
			items: []AdmissionItem{
				deferred(slo(item(1, 24), 10*time.Second), 2, 3),
				slo(item(2, 6), time.Millisecond), slo(item(3, 6), time.Millisecond),
			},
			policy: AdmissionPolicy{SLOAware: true, StarvationWaves: 2},
			bc:     shape(1, 2, 40),
			mbs:    [][]int{{0, 1}}, deferred: []int{2}, history: [][2]int{{1, 1}},
		},
		{
			name:  "nothing fits: empty plan, no deferral counted",
			items: []AdmissionItem{item(1, 100), item(2, 90)},
			bc:    shape(2, 2, 40),
		},
		{
			name:  "same deferred set twice running is no progress",
			items: []AdmissionItem{deferred(item(1, 5), 1, 1), item(2, 9)},
			bc:    shape(1, 1, 64),
			mbs:   [][]int{{1}}, deferred: []int{0}, noProgress: true, history: [][2]int{{2, 1}},
		},
		{
			// Identity, not value: a new arrival equal to a starved
			// request defers normally on first sight.
			name:  "fresh look-alike of a starved request is not starved",
			items: []AdmissionItem{item(1, 5), item(2, 9)},
			bc:    shape(1, 1, 64),
			mbs:   [][]int{{1}}, deferred: []int{0}, history: [][2]int{{1, 1}},
		},
		{
			// Its partner from the previous boundary's deferred pair left
			// the queue (canceled): the set changed, so no verdict yet.
			name:  "a shrunken deferred set is a different set",
			items: []AdmissionItem{deferred(item(1, 5), 1, 2), item(2, 9)},
			bc:    shape(1, 1, 64),
			mbs:   [][]int{{1}}, deferred: []int{0}, history: [][2]int{{2, 1}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := append([]AdmissionItem(nil), tc.items...)
			plan, err := PlanWave(tc.items, base, tc.policy, tc.bc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan.MicroBatches, tc.mbs) || !reflect.DeepEqual(plan.Deferred, tc.deferred) {
				t.Fatalf("plan %v deferred %v, want %v deferred %v", plan.MicroBatches, plan.Deferred, tc.mbs, tc.deferred)
			}
			if plan.NoProgress != tc.noProgress {
				t.Errorf("NoProgress = %v, want %v", plan.NoProgress, tc.noProgress)
			}
			isDeferred := make(map[int]bool)
			for k, i := range plan.Deferred {
				isDeferred[i] = true
				if got := [2]int{tc.items[i].Deferrals, tc.items[i].DeferredWith}; got != tc.history[k] {
					t.Errorf("deferred item %d history %v, want %v", i, got, tc.history[k])
				}
			}
			for i := range tc.items {
				if !isDeferred[i] && tc.items[i] != before[i] {
					t.Errorf("item %d was not deferred but changed: %+v -> %+v", i, before[i], tc.items[i])
				}
			}
		})
	}
}

// TestQueueBound: each bound alone rejects exactly the arrival that
// would cross it, and a zero bound is no bound.
func TestQueueBound(t *testing.T) {
	for _, tc := range []struct {
		policy                     AdmissionPolicy
		qReqs, qTokens, reqs, toks int
		shed                       bool
	}{
		{AdmissionPolicy{}, 1000, 1 << 20, 10, 1 << 10, false},
		{AdmissionPolicy{MaxQueuedRequests: 3}, 2, 0, 1, 0, false},
		{AdmissionPolicy{MaxQueuedRequests: 3}, 2, 0, 2, 0, true},
		{AdmissionPolicy{MaxQueuedTokens: 100}, 50, 60, 1, 40, false},
		{AdmissionPolicy{MaxQueuedTokens: 100}, 0, 60, 1, 41, true},
	} {
		err := tc.policy.QueueBound(tc.qReqs, tc.qTokens, tc.reqs, tc.toks)
		if (err != nil) != tc.shed || (err != nil && !errors.Is(err, ErrOverloaded)) {
			t.Errorf("%+v with %d/%d queued + %d/%d: err %v, want shed %v",
				tc.policy, tc.qReqs, tc.qTokens, tc.reqs, tc.toks, err, tc.shed)
		}
	}
}

package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/workload"
)

// TestPlanWave pins the wave-boundary decision the live server and the
// traffic simulator share: ordering, placement mapping and deferral
// bookkeeping, one row per rule.
func TestPlanWave(t *testing.T) {
	base := time.Unix(0, 0)
	item := func(id, prompt int) AdmissionItem {
		return AdmissionItem{Req: workload.Request{ID: id, PromptLen: prompt, GenLen: 2}, Submitted: base}
	}
	slo := func(it AdmissionItem, ttft time.Duration) AdmissionItem {
		it.SLO = SLO{TTFT: ttft}
		return it
	}
	deferred := func(it AdmissionItem, deferrals int) AdmissionItem {
		it.Deferrals = deferrals
		return it
	}
	shape := func(numMB, size, cache int) batching.Config {
		return batching.Config{NumMicroBatches: numMB, MicroBatchSize: size, GenLen: 2, TokenBytes: 1, CacheBytes: cache}
	}
	later := item(4, 4)
	later.Submitted = base.Add(time.Millisecond)

	for _, tc := range []struct {
		name  string
		items []AdmissionItem
		bc    batching.Config
		// want: micro-batches and deferred set as item indices, and each
		// deferred item's Deferrals after the plan.
		mbs       [][]int
		deferred  []int
		deferrals []int
	}{
		{
			name:  "without targets places longest prompts first and defers the rest",
			items: []AdmissionItem{item(1, 5), item(2, 9), item(3, 7)},
			bc:    shape(1, 2, 64),
			mbs:   [][]int{{1, 2}}, deferred: []int{0}, deferrals: []int{1},
		},
		{
			// No setting asks for it: a request's TTFT target alone
			// puts it ahead of a longer one with more slack.
			name: "targets order by slack, not length",
			items: []AdmissionItem{
				slo(item(1, 9), time.Second),
				slo(item(2, 4), 100*time.Millisecond),
				slo(item(3, 6), 500*time.Millisecond),
			},
			bc:  shape(1, 2, 64),
			mbs: [][]int{{1, 2}}, deferred: []int{0}, deferrals: []int{1},
		},
		{
			name: "targets first by slack, then the rest by descending length",
			items: []AdmissionItem{
				item(1, 5),
				slo(item(2, 3), time.Second),
				item(3, 9),
				slo(item(4, 4), 100*time.Millisecond),
				item(5, 7),
			},
			bc:  shape(1, 5, 64),
			mbs: [][]int{{3, 1, 2, 4, 0}},
		},
		{
			// Starved first, then ascending TTFT slack, then the
			// deadline-free; equal lengths keep input order.
			name: "slack places most urgent first",
			items: []AdmissionItem{
				slo(item(1, 4), time.Second),
				item(2, 4),
				slo(item(3, 4), 100*time.Millisecond),
				later,
				deferred(slo(item(5, 4), 10*time.Second), 5),
				slo(item(6, 4), 500*time.Millisecond),
			},
			bc:  shape(1, 6, 64),
			mbs: [][]int{{4, 2, 5, 0, 1, 3}},
		},
		{
			name:  "duplicate ids map back first come first placed",
			items: []AdmissionItem{item(7, 5), item(7, 5), item(8, 9)},
			bc:    shape(1, 2, 64),
			mbs:   [][]int{{2, 0}}, deferred: []int{1}, deferrals: []int{1},
		},
		{
			// 24+2 fits a 40-token micro-batch alone or with one short
			// request; the shorts' blown 1ms budgets outrank its 10s.
			name: "slack defers the slack-rich request",
			items: []AdmissionItem{
				deferred(slo(item(1, 24), 10*time.Second), 2),
				slo(item(2, 6), time.Millisecond), slo(item(3, 6), time.Millisecond),
			},
			bc:  shape(1, 2, 40),
			mbs: [][]int{{1, 2}}, deferred: []int{0}, deferrals: []int{3},
		},
		{
			name: "starvation bound promotes it ahead of any deadline",
			items: []AdmissionItem{
				deferred(slo(item(1, 24), 10*time.Second), 3),
				slo(item(2, 6), time.Millisecond), slo(item(3, 6), time.Millisecond),
			},
			bc:  shape(1, 2, 40),
			mbs: [][]int{{0, 1}}, deferred: []int{2}, deferrals: []int{1},
		},
		{
			// Identity, not value: a new arrival equal to the starved
			// request above defers normally on first sight.
			name: "fresh look-alike of a starved request is not starved",
			items: []AdmissionItem{
				slo(item(1, 24), 10*time.Second),
				slo(item(2, 6), time.Millisecond), slo(item(3, 6), time.Millisecond),
			},
			bc:  shape(1, 2, 40),
			mbs: [][]int{{1, 2}}, deferred: []int{0}, deferrals: []int{1},
		},
		{
			name:  "nothing fits: empty plan, no deferral counted",
			items: []AdmissionItem{item(1, 100), item(2, 90)},
			bc:    shape(2, 2, 40),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := append([]AdmissionItem(nil), tc.items...)
			plan, err := PlanWave(tc.items, base, tc.bc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan.MicroBatches, tc.mbs) || !reflect.DeepEqual(plan.Deferred, tc.deferred) {
				t.Fatalf("plan %v deferred %v, want %v deferred %v", plan.MicroBatches, plan.Deferred, tc.mbs, tc.deferred)
			}
			isDeferred := make(map[int]bool)
			for k, i := range plan.Deferred {
				isDeferred[i] = true
				if got := tc.items[i].Deferrals; got != tc.deferrals[k] {
					t.Errorf("deferred item %d has %d deferrals, want %d", i, got, tc.deferrals[k])
				}
			}
			for i := range tc.items {
				if !isDeferred[i] && tc.items[i] != before[i] {
					t.Errorf("item %d was not deferred but changed: %+v -> %+v", i, before[i], tc.items[i])
				}
			}
		})
	}

	// Two tight-deadline shorts arrive at every boundary and outrank the
	// 24-token request's 10s slack, yet a deferred request waits for its
	// turn: three boundaries pass it over, and the bound places it at
	// the fourth.
	t.Run("steady arrivals defer a slack-rich request three times, then place it", func(t *testing.T) {
		carried := []AdmissionItem{slo(item(1, 24), 10*time.Second)}
		for b := 1; b <= 4; b++ {
			items := append(carried, slo(item(10*b, 6), time.Millisecond), slo(item(10*b+1, 6), time.Millisecond))
			plan, err := PlanWave(items, base, shape(1, 2, 40))
			if err != nil {
				t.Fatal(err)
			}
			wantMBs, wantDeferred := [][]int{{1, 2}}, []int{0}
			if b == 4 {
				wantMBs, wantDeferred = [][]int{{0, 1}}, []int{2}
			}
			if !reflect.DeepEqual(plan.MicroBatches, wantMBs) || !reflect.DeepEqual(plan.Deferred, wantDeferred) {
				t.Fatalf("boundary %d: plan %v deferred %v, want %v deferred %v",
					b, plan.MicroBatches, plan.Deferred, wantMBs, wantDeferred)
			}
			if b < 4 && items[0].Deferrals != b {
				t.Fatalf("boundary %d: long request has %d deferrals, want %d", b, items[0].Deferrals, b)
			}
			carried = nil
			for _, i := range plan.Deferred {
				carried = append(carried, items[i])
			}
		}
	})
}

// TestQueueBound: the bound rejects exactly the arrival that would
// cross it, and a zero bound is no bound.
func TestQueueBound(t *testing.T) {
	for _, tc := range []struct {
		maxQueued, queued, add int
		shed                   bool
	}{
		{0, 1000, 10, false},
		{3, 2, 1, false},
		{3, 2, 2, true},
	} {
		err := QueueBound(tc.maxQueued, tc.queued, tc.add)
		if (err != nil) != tc.shed || (err != nil && !errors.Is(err, ErrOverloaded)) {
			t.Errorf("bound %d with %d queued + %d: err %v, want shed %v", tc.maxQueued, tc.queued, tc.add, err, tc.shed)
		}
	}
}

// TestPlanWaveWithoutTargetsIsBatch: on a queue that carries no TTFT
// target and holds no starved request — every offline workload — the
// one admission order is Alg. 2's length order, so PlanWave places
// exactly what batching.Batch places: the same requests in the same
// micro-batches, in the same order, and defers the same ones.
func TestPlanWaveWithoutTargetsIsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	base := time.Unix(0, 0)
	for q := 0; q < 2000; q++ {
		bc := batching.Config{
			NumMicroBatches: 1 + rng.Intn(4),
			MicroBatchSize:  1 + rng.Intn(4),
			GenLen:          rng.Intn(8),
			TokenBytes:      1,
			CacheBytes:      16 + rng.Intn(96),
		}
		if rng.Intn(2) == 0 {
			bc.BlockTokens = 4 << rng.Intn(3)
		}
		items := make([]AdmissionItem, 1+rng.Intn(12))
		reqs := make([]workload.Request, len(items))
		for i := range items {
			r := workload.Request{ID: i + 1, PromptLen: 1 + rng.Intn(40), GenLen: rng.Intn(8)}
			if rng.Intn(2) == 0 {
				r.PrefixID, r.PrefixLen = 1+rng.Intn(2), rng.Intn(r.PromptLen+8)
			}
			reqs[i] = r
			items[i] = AdmissionItem{
				Req:       r,
				Submitted: base.Add(time.Duration(rng.Intn(5)) * time.Millisecond),
				Deferrals: rng.Intn(starvationWaves),
			}
		}
		mbs, aborted, err := batching.Batch(reqs, bc)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanWave(items, base.Add(time.Second), bc)
		if err != nil {
			t.Fatal(err)
		}
		var got, want [][]workload.Request
		for _, mb := range plan.MicroBatches {
			var group []workload.Request
			for _, i := range mb {
				group = append(group, reqs[i])
			}
			got = append(got, group)
		}
		for _, mb := range mbs {
			want = append(want, mb.Requests)
		}
		if len(mbs) == 0 {
			aborted = nil // nothing fits: PlanWave defers nothing
		}
		var gotDeferred []workload.Request
		for _, i := range plan.Deferred {
			gotDeferred = append(gotDeferred, reqs[i])
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotDeferred, aborted) {
			t.Fatalf("queue %d (%+v): PlanWave placed %v deferred %v; Batch placed %v deferred %v",
				q, bc, got, gotDeferred, want, aborted)
		}
	}
}

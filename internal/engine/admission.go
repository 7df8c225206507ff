package engine

import (
	"fmt"
	"sort"
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/workload"
)

// SLO is a request's latency service-level objective: a time-to-first-
// token budget measured from submission, and a time-per-output-token
// budget over the decode steps after the first. A zero field means "no
// target" for that dimension; the zero SLO opts the request out of SLO
// accounting entirely.
type SLO struct {
	TTFT time.Duration `json:"ttft_ns"`
	TPOT time.Duration `json:"tpot_ns"`
}

// IsZero reports whether the SLO carries no targets.
func (s SLO) IsZero() bool { return s.TTFT == 0 && s.TPOT == 0 }

// DefaultStarvationWaves is how many consecutive deferrals promote a
// request to the front of the slack-ordered admission queue when
// AdmissionPolicy.StarvationWaves is unset. Together with BatchOrdered's
// place-first-request-first behavior it bounds starvation: a request
// deferred this many times is the first dealt to an empty micro-batch
// at the next wave boundary, so it is admitted then unless it can fit
// no micro-batch at all (which fails it outright instead).
const DefaultStarvationWaves = 3

// AdmissionPolicy is the queueing policy of a serving loop: how the
// pending queue is ordered at a wave boundary and how large it may
// grow. The live Server (embedded in its ServeConfig) and the traffic
// package's virtual-time simulator hand the same value to the same two
// functions — QueueBound at arrival, PlanWave at every boundary — so
// simulated and live wave composition agree because they are one piece
// of code.
type AdmissionPolicy struct {
	// SLOAware switches wave-boundary admission from FIFO-with-deferral
	// to deadline-slack order: at every wave boundary the (deferred +
	// newly arrived) queue is sorted most-urgent-first (AdmissionOrder)
	// and placed by batching.BatchOrdered, so when capacity runs out it
	// is the slack-rich requests that defer. Off, admission is exactly
	// the classic length-sorted Alg. 2 pass.
	SLOAware bool
	// StarvationWaves bounds starvation under SLO-aware admission: a
	// request deferred this many consecutive wave boundaries jumps to
	// the front of the admission order (<= 0 selects
	// DefaultStarvationWaves). Ignored without SLOAware.
	StarvationWaves int
	// MaxQueuedRequests / MaxQueuedTokens bound the admitted-but-not-yet-
	// dispatched set: an arrival that would push past either bound fails
	// fast with ErrOverloaded instead of queueing toward a blown
	// deadline. <= 0 disables the bound.
	MaxQueuedRequests int
	MaxQueuedTokens   int
}

// QueueBound is the hard overload gate: it rejects (ErrOverloaded) an
// arrival of reqs requests weighing tokens prompt+generation tokens
// when admitting it would push a queue already holding queuedReqs /
// queuedTokens past a configured bound.
func (p AdmissionPolicy) QueueBound(queuedReqs, queuedTokens, reqs, tokens int) error {
	if n := p.MaxQueuedRequests; n > 0 && queuedReqs+reqs > n {
		return fmt.Errorf("%w: %d queued requests + %d exceed MaxQueuedRequests %d",
			ErrOverloaded, queuedReqs, reqs, n)
	}
	if n := p.MaxQueuedTokens; n > 0 && queuedTokens+tokens > n {
		return fmt.Errorf("%w: %d queued tokens + %d exceed MaxQueuedTokens %d",
			ErrOverloaded, queuedTokens, tokens, n)
	}
	return nil
}

// AdmissionItem is one candidate at a wave boundary: the request plus
// everything admission order depends on. A Handle carries one; the
// simulator builds the same items from a trace.
type AdmissionItem struct {
	// Req is the request the batcher places.
	Req workload.Request
	// Submitted is when the request entered the queue.
	Submitted time.Time
	// SLO carries the request's latency targets; a zero SLO sorts after
	// every deadline-bearing request (it has infinite slack).
	SLO SLO
	// Deferrals counts how many wave boundaries have already passed the
	// request over.
	Deferrals int
	// DeferredWith is the size of the deferred set the previous boundary
	// put this request in (0: new, or placed since). PlanWave maintains
	// it for the no-progress guard: a deferred set repeats exactly when
	// every member was last deferred with a set of the same size.
	DeferredWith int
}

// slack is the time remaining until the request's TTFT deadline: the
// smaller it is (negative = already blown), the more urgent admission
// is. Requests without a TTFT target report the maximum duration.
func (it AdmissionItem) slack(now time.Time) time.Duration {
	if it.SLO.TTFT <= 0 {
		return time.Duration(1<<63 - 1)
	}
	return it.Submitted.Add(it.SLO.TTFT).Sub(now)
}

// AdmissionOrder returns the deadline-slack admission order as a
// permutation of item indices, most urgent first:
//
//  1. starved requests (Deferrals >= starvationWaves, the bound that
//     replaces FIFO's implicit fairness), longest-deferred first;
//  2. everything else by ascending TTFT slack at now — requests without
//     a TTFT target have infinite slack and sort last, among themselves
//     in FIFO (submission) order.
//
// Ties break by submission time, then by input index, so the order is
// deterministic for any input.
func AdmissionOrder(items []AdmissionItem, now time.Time, starvationWaves int) []int {
	if starvationWaves <= 0 {
		starvationWaves = DefaultStarvationWaves
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := items[order[a]], items[order[b]]
		sa, sb := ia.Deferrals >= starvationWaves, ib.Deferrals >= starvationWaves
		if sa != sb {
			return sa
		}
		if sa { // both starved: longest wait first
			if ia.Deferrals != ib.Deferrals {
				return ia.Deferrals > ib.Deferrals
			}
			return ia.Submitted.Before(ib.Submitted)
		}
		ka, kb := ia.slack(now), ib.slack(now)
		if ka != kb {
			return ka < kb
		}
		return ia.Submitted.Before(ib.Submitted)
	})
	return order
}

// WavePlan is one wave boundary's decision over the pending queue.
// Indices refer to the items slice PlanWave was given.
type WavePlan struct {
	// MicroBatches lists the formed micro-batches, each the indices of
	// its requests in placement order. Empty means no pending request
	// fits any micro-batch: the caller fails the whole queue.
	MicroBatches [][]int
	// Deferred lists the requests passed over, in the batcher's abort
	// order — the order they keep at the head of the next boundary's
	// queue.
	Deferred []int
	// NoProgress reports that Deferred is exactly the set the previous
	// boundary deferred: those requests are starved and would defer
	// forever, so the caller fails them (ErrNoProgress) instead.
	NoProgress bool
}

// PlanWave decides one wave boundary: it orders the pending items
// (arrival order, or most-urgent-first under policy.SLOAware), runs the
// Alg. 2 placement over them, maps the batcher's placement back onto
// item indices, and judges the no-progress guard. It has no clock and
// no state of its own — now and the items' deferral history are inputs —
// so the same queue always yields the same plan. The one thing it
// writes is that history: each deferred item's Deferrals and
// DeferredWith are advanced in place, ready for the next boundary.
// Nothing is counted when no request fits at all.
func PlanWave(items []AdmissionItem, now time.Time, policy AdmissionPolicy, bc batching.Config) (WavePlan, error) {
	var order []int
	if policy.SLOAware {
		order = AdmissionOrder(items, now, policy.StarvationWaves)
	} else {
		order = make([]int, len(items))
		for i := range order {
			order[i] = i
		}
	}
	// Duplicate request ids denote identical requests (prompts derive
	// from the id), so a per-id FIFO over the ordered queue keeps the
	// mapping from placed requests back to items well-defined.
	reqs := make([]workload.Request, len(items))
	byID := make(map[int][]int, len(items))
	for i, idx := range order {
		reqs[i] = items[idx].Req
		byID[reqs[i].ID] = append(byID[reqs[i].ID], idx)
	}
	take := func(id int) int {
		idx := byID[id][0]
		byID[id] = byID[id][1:]
		return idx
	}
	var mbs []batching.MicroBatch
	var aborted []workload.Request
	var err error
	if policy.SLOAware {
		mbs, aborted, err = batching.BatchOrdered(reqs, bc)
	} else {
		mbs, aborted, err = batching.Batch(reqs, bc)
	}
	if err != nil || len(mbs) == 0 {
		return WavePlan{}, err
	}
	var plan WavePlan
	for _, mb := range mbs {
		group := make([]int, len(mb.Requests))
		for i, r := range mb.Requests {
			group[i] = take(r.ID)
		}
		plan.MicroBatches = append(plan.MicroBatches, group)
	}
	plan.NoProgress = len(aborted) > 0
	for _, r := range aborted {
		idx := take(r.ID)
		plan.Deferred = append(plan.Deferred, idx)
		if items[idx].DeferredWith != len(aborted) {
			plan.NoProgress = false
		}
		items[idx].Deferrals++
		items[idx].DeferredWith = len(aborted)
	}
	return plan, nil
}

package engine

import (
	"errors"
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

// Verdict judges one finished request against the SLO — the one rule
// the server, traffic.Run and the admission simulator all count by.
// err is the request's terminal error, tokens how many it produced,
// ttft its time to first token and tpot its mean time per token after
// the first.
//
// A zero SLO or a canceled request (the client walked away; the server
// neither met nor missed) is not judged. Any other error is a TTFT
// miss: the first token never came in time. So is no token at all
// against a TTFT target. TPOT is judged only once two tokens exist; a
// request can miss both.
func (s SLO) Verdict(err error, tokens int, ttft, tpot time.Duration) (judged, missTTFT, missTPOT bool) {
	if s.IsZero() || errors.Is(err, ErrCanceled) {
		return false, false, false
	}
	missTTFT = err != nil || (s.TTFT > 0 && (tokens == 0 || ttft > s.TTFT))
	missTPOT = s.TPOT > 0 && tokens > 1 && tpot > s.TPOT
	return true, missTTFT, missTPOT
}

// SLOTally counts SLO verdicts: the judged requests, those inside every
// stated target, and the blown dimensions (SLO.Verdict has the rule).
type SLOTally struct {
	SLORequests int `json:"slo_requests"`
	SLOMet      int `json:"slo_met"`
	SLOMissTTFT int `json:"slo_miss_ttft"`
	SLOMissTPOT int `json:"slo_miss_tpot"`
}

// Count judges one finished request (SLO.Verdict's arguments) into the
// tally and reports whether it met its SLO.
func (t *SLOTally) Count(slo SLO, err error, tokens int, ttft, tpot time.Duration) (met bool) {
	judged, missTTFT, missTPOT := slo.Verdict(err, tokens, ttft, tpot)
	if !judged {
		return false
	}
	t.SLORequests++
	if missTTFT {
		t.SLOMissTTFT++
	}
	if missTPOT {
		t.SLOMissTPOT++
	}
	if missTTFT || missTPOT {
		return false
	}
	t.SLOMet++
	return true
}

// starvationWaves is how many consecutive deferrals promote a request
// to the front of the admission order. Together with BatchOrdered's
// place-first-request-first behavior it bounds starvation: a request
// deferred this many times is the first dealt to an empty micro-batch
// at the next wave boundary, so it is admitted then (the server refuses
// at Submit any request an empty micro-batch cannot hold).
const starvationWaves = 3

// QueueBound is the hard overload gate of the live server and the
// traffic package's simulator alike: it rejects (ErrOverloaded) an
// arrival of reqs requests when admitting it would push a queue already
// holding queuedReqs past maxQueued. maxQueued <= 0 is no bound.
func QueueBound(maxQueued, queuedReqs, reqs int) error {
	if maxQueued > 0 && queuedReqs+reqs > maxQueued {
		return fmt.Errorf("%w: %d queued requests + %d exceed MaxQueuedRequests %d",
			ErrOverloaded, queuedReqs, reqs, maxQueued)
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

// AdmissionOrder returns the wave-boundary admission order as a
// permutation of item indices, first placed first. It reads nothing but
// what each item carries:
//
//  1. starved requests (Deferrals >= starvationWaves), longest-deferred
//     first, then by submission time;
//  2. everything else by ascending TTFT slack at now, so when capacity
//     runs out it is the slack-rich requests that defer — requests
//     without a TTFT target have infinite slack and sort last;
//  3. equal slack by descending prompt length, Alg. 2's order (l.4);
//  4. then input order.
//
// A queue without TTFT targets or starved requests is thus in exactly
// batching.Batch's length order, and one whose requests share a TTFT
// target is in submission order. The order is deterministic for any
// input.
func AdmissionOrder(items []AdmissionItem, now time.Time) []int {
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
		if ka, kb := ia.slack(now), ib.slack(now); ka != kb {
			return ka < kb
		}
		return ia.Req.PromptLen > ib.Req.PromptLen
	})
	return order
}

// WavePlan is one wave boundary's decision over the pending queue.
// Indices refer to the items slice PlanWave was given.
type WavePlan struct {
	// MicroBatches lists the formed micro-batches, each the indices of
	// its requests in placement order. Empty means no pending request
	// fits an empty micro-batch; the server never asks about one.
	MicroBatches [][]int
	// Deferred lists the requests passed over, in admission order — the
	// order they keep at the head of the next boundary's queue. They
	// wait for a later boundary: each fits an empty micro-batch, so one
	// with room always comes.
	Deferred []int
}

// PlanWave decides one wave boundary: it orders the pending items by
// AdmissionOrder, runs the Alg. 2 placement over them in that order
// (batching.BatchOrdered) and maps the placed positions back onto item
// indices. It has no clock and no state of its own — now and the
// items' deferral counts are inputs — so the same queue always yields
// the same plan. The one thing it writes is those counts: each deferred
// item's Deferrals is advanced in place, ready for the next boundary.
// Nothing is counted when no request fits at all.
func PlanWave(items []AdmissionItem, now time.Time, bc batching.Config) (WavePlan, error) {
	order := AdmissionOrder(items, now)
	reqs := make([]workload.Request, len(order))
	for i, idx := range order {
		reqs[i] = items[idx].Req
	}
	placed, deferred, err := batching.BatchOrdered(reqs, bc)
	if err != nil || len(placed) == 0 {
		return WavePlan{}, err
	}
	for _, group := range placed {
		for i, pos := range group {
			group[i] = order[pos]
		}
	}
	plan := WavePlan{MicroBatches: placed}
	for _, pos := range deferred {
		idx := order[pos]
		plan.Deferred = append(plan.Deferred, idx)
		items[idx].Deferrals++
	}
	return plan, nil
}

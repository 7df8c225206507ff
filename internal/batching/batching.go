// Package batching implements the paper's request-batching algorithm
// (Appendix A.2, Alg. 2): requests sorted by input length descending are
// dealt to the micro-batch partition with the fewest tokens, keeping all
// micro-batches near the policy's μ while respecting a per-micro-batch
// KV cache budget; requests that cannot fit are deferred to the next
// batch.
package batching

import (
	"fmt"
	"sort"

	"moelightning/internal/workload"
)

// Config parameterizes one batching round.
type Config struct {
	// NumMicroBatches is n_ub: how many micro-batches to form.
	NumMicroBatches int
	// MicroBatchSize is ubs: the maximum requests per micro-batch.
	MicroBatchSize int
	// GenLen is the generation length each request will run.
	GenLen int
	// CacheTokens is ignored: the budget is CacheBytes. The field stays
	// because the standing benchmark's batching probe (bench/probes.go)
	// sets it, until ROADMAP item 7 revises that frozen code.
	CacheTokens int
	// TokenBytes and CacheBytes are the capacity check (Alg. 2 l.9,
	// cache_size): a token costs TokenBytes (kvcache.TokenBytes,
	// codec-dependent) of CacheBytes per micro-batch, so an int8 KV codec
	// admits ~32/9 the context. TokenBytes 1 budgets in tokens.
	TokenBytes int
	CacheBytes int
	// BlockTokens is the KV cache's tokens-per-block geometry. When set,
	// a request is charged whole blocks, as the paged cache hands them
	// out, and the capacity check charges only NEW tokens for a request
	// whose declared prefix (workload.Request.PrefixID / PrefixLen) is
	// already placed in this round: the engine maps those blocks instead
	// of allocating them, so admission reflects true residual demand.
	// The discount is rounded down to whole blocks — the engine shares
	// nothing finer — and generation room is always charged in full.
	// MicroBatch.PromptTokens stays the real prompt total (it feeds
	// compute-balance metrics, not capacity). Zero charges single tokens
	// and discounts nothing.
	BlockTokens int
}

// cost is one request's charge against its micro-batch's KV budget: its
// prompt less the shared-prefix discount plus GenLen, in whole blocks
// of bytes.
func (c Config) cost(promptLen, discount int) int {
	bt := max(c.BlockTokens, 1)
	return (promptLen - discount + c.GenLen + bt - 1) / bt * bt * c.TokenBytes
}

// Cost is what a request of promptLen prompt tokens and no shared
// prefix charges its micro-batch's KV budget.
func (c Config) Cost(promptLen int) int { return c.cost(promptLen, 0) }

// Fits reports whether such a request fits an empty micro-batch; one
// that does not can never be placed.
func (c Config) Fits(promptLen int) bool { return c.Cost(promptLen) <= c.CacheBytes }

// Validate reports malformed configs.
func (c Config) Validate() error {
	if c.NumMicroBatches <= 0 || c.MicroBatchSize <= 0 {
		return fmt.Errorf("batching: non-positive sizes n_ub=%d ubs=%d", c.NumMicroBatches, c.MicroBatchSize)
	}
	if c.GenLen < 0 {
		return fmt.Errorf("batching: invalid genlen=%d", c.GenLen)
	}
	if c.TokenBytes <= 0 || c.CacheBytes <= 0 {
		return fmt.Errorf("batching: invalid budget TokenBytes=%d CacheBytes=%d", c.TokenBytes, c.CacheBytes)
	}
	return nil
}

// MicroBatch is one formed micro-batch.
type MicroBatch struct {
	Requests []workload.Request
	// PromptTokens is the total prompt length of the micro-batch.
	PromptTokens int
}

// Batch partitions the queue per Alg. 2, returning the formed
// micro-batches and the requests deferred to the next round. The input
// queue is not modified.
func Batch(queue []workload.Request, cfg Config) (batches []MicroBatch, aborted []workload.Request, err error) {
	sorted := append([]workload.Request(nil), queue...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].PromptLen > sorted[j].PromptLen // descending (l.4)
	})
	placed, deferred, err := BatchOrdered(sorted, cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, group := range placed {
		mb := MicroBatch{Requests: make([]workload.Request, len(group))}
		for i, pos := range group {
			mb.Requests[i] = sorted[pos]
			mb.PromptTokens += sorted[pos].PromptLen
		}
		batches = append(batches, mb)
	}
	for _, pos := range deferred {
		aborted = append(aborted, sorted[pos])
	}
	return batches, aborted, nil
}

// BatchOrdered is the Alg. 2 placement loop over the queue in the
// caller's order: the first request is placed (or aborted) first, the
// second next, each dealt to the least-loaded open partition under the
// capacity budget. Batch is this loop over the queue sorted by
// descending prompt length; the engine's admission runs it over its own
// order, in which urgent requests come first.
// Results are positions in queue: each formed micro-batch's requests in
// placement order, then the aborted ones in queue order.
func BatchOrdered(queue []workload.Request, cfg Config) (batches [][]int, aborted []int, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	// partitions under construction (Alg. 2 l.1-3). charged carries
	// prompt tokens less any shared-prefix discount, for the least-loaded
	// pick; spent is the capacity check's cost.
	parts := make([][]int, cfg.NumMicroBatches)
	charged := make([]int, cfg.NumMicroBatches)
	spent := make([]int, cfg.NumMicroBatches)
	live := make([]int, 0, cfg.NumMicroBatches) // indices of open partitions
	for i := range parts {
		parts[i] = make([]int, 0, cfg.MicroBatchSize)
		live = append(live, i)
	}
	// seen tracks, per prefix id, the longest prefix a request placed in
	// the round (any partition: the wave's cache is shared) can lend: its
	// declared prefix short of its last token, the most the engine maps.
	var seen map[int]int
	if cfg.BlockTokens > 0 {
		seen = make(map[int]int)
	}

	for pos, req := range queue {
		if len(live) == 0 {
			aborted = append(aborted, pos) // l.6-7
			continue
		}
		// argmin over open partitions (l.8), by capacity-relevant load.
		idx := live[0]
		for _, i := range live[1:] {
			if charged[i] < charged[idx] {
				idx = i
			}
		}
		// Capacity check (l.9): what the partition has spent plus this
		// request's prompt and generation room. A shared-prefix match
		// charges only the unshared tail of the prompt.
		discount := cfg.prefixDiscount(req, seen)
		cost := cfg.cost(req.PromptLen, discount)
		if spent[idx]+cost > cfg.CacheBytes {
			aborted = append(aborted, pos) // l.10
			continue
		}
		parts[idx] = append(parts[idx], pos) // l.12-13
		charged[idx] += req.PromptLen - discount
		spent[idx] += cost
		if seen != nil && req.PrefixID != 0 {
			if lend := min(req.PrefixLen, req.PromptLen-1); lend > seen[req.PrefixID] {
				seen[req.PrefixID] = lend
			}
		}
		if len(parts[idx]) == cfg.MicroBatchSize { // l.14-18
			batches = append(batches, parts[idx])
			live = remove(live, idx)
		}
	}
	// Flush partially filled partitions in index order.
	for _, i := range live {
		if len(parts[i]) > 0 {
			batches = append(batches, parts[i])
		}
	}
	return batches, aborted, nil
}

// prefixDiscount is the token count a request's placement does NOT
// charge against the cache budget: the block-aligned part of its
// declared prefix that an already-placed request also declared, which
// the engine will map rather than allocate. At least one token of the
// prompt is always charged (the last token is always computed), and a
// match shorter than one block discounts nothing.
func (c Config) prefixDiscount(req workload.Request, seen map[int]int) int {
	if c.BlockTokens <= 0 || req.PrefixID == 0 {
		return 0
	}
	d := min(req.PrefixLen, req.PromptLen-1, seen[req.PrefixID])
	d = d / c.BlockTokens * c.BlockTokens
	if d < c.BlockTokens {
		return 0
	}
	return d
}

func remove(xs []int, v int) []int {
	out := xs[:0]
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// Spread reports the imbalance of the formed micro-batches: the max
// minus min total prompt tokens across batches, the quantity Alg. 2
// minimizes greedily.
func Spread(batches []MicroBatch) int {
	if len(batches) == 0 {
		return 0
	}
	min, max := batches[0].PromptTokens, batches[0].PromptTokens
	for _, b := range batches[1:] {
		if b.PromptTokens < min {
			min = b.PromptTokens
		}
		if b.PromptTokens > max {
			max = b.PromptTokens
		}
	}
	return max - min
}

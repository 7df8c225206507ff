package engine

import (
	"fmt"
	"time"

	"moelightning/internal/kvcache"
)

// promptTotals records the run's prompt phase once its last pass has
// sampled: the wall-clock its passes took and, over the sequences that
// survived it, the tokens computed. PrefillTokens counts tokens actually
// computed; prefix-mapped tokens land in PrefixHitTokens instead, and
// those a sequence mapped from blocks an earlier run left cached (it
// has no donor) in RetainedHitTokens too.
func (p *Pipeline) promptTotals(took time.Duration) {
	prefilled, reused, retained := 0, 0, 0
	for s, prompt := range p.prompts {
		if p.seqErr[s] != nil {
			continue
		}
		prefilled += len(prompt) - p.skip[s]
		reused += p.skip[s]
		if p.donor[s] < 0 {
			retained += p.skip[s]
		}
	}
	p.PrefillTokens, p.PrefillDuration = prefilled, took
	p.Counters.PrefixHitTokens.Add(int64(reused))
	p.Counters.RetainedHitTokens.Add(int64(retained))
}

// planPrefixReuse plans where each sequence's prompt prefix comes from,
// walking the sequences in issue order (micro-batch order, then order
// within the micro-batch). Only whole blocks are shared, the way
// admission charges for them (batching's prefix discount), and at least
// the prompt's last token is always computed — decode needs its hidden
// state — so a match is floored to whole blocks of the prompt short of
// its last token. Two sources:
//
//   - the cache: the leading whole blocks the prefix index resolves at
//     every layer (kvcache.IndexedPrefix) — blocks an earlier run's
//     prompts indexed and left cached. begin attaches them before the
//     first pass;
//   - a wave-mate: the sequence ahead of it in issue order sharing its
//     longest common prompt prefix. A donor precedes its follower in
//     issue order, the order passes take prompt tokens in and the CPU
//     lane runs each layer's attention in, so the donor's whole prompt
//     is cached and indexed at a layer before the follower attaches at
//     it (appendSpan).
//
// The longer source wins, the cache on a tie. The wave-mate scan stays
// pairwise because the index cannot answer it: at begin the wave-mates'
// blocks are not computed yet. Returns per-sequence skip lengths and
// donor indices (-1: none, or the cache).
func (p *Pipeline) planPrefixReuse(prompts [][]int) (skip, donor []int) {
	skip = make([]int, len(prompts))
	donor = make([]int, len(prompts))
	for s := range donor {
		donor[s] = -1
	}
	bt := p.cache.BlockTokens()
	var order []int
	for _, mb := range p.mbs {
		order = append(order, mb...)
	}
	for i, s := range order {
		best, bestD := 0, -1
		for _, d := range order[:i] {
			lcp := 0
			n := len(prompts[s])
			if len(prompts[d]) < n {
				n = len(prompts[d])
			}
			for lcp < n && prompts[s][lcp] == prompts[d][lcp] {
				lcp++
			}
			if lcp > best {
				best, bestD = lcp, d
			}
		}
		best = min(best, len(prompts[s])-1) / bt * bt
		if cached := p.cache.IndexedPrefix(prompts[s], len(prompts[s])-1); cached >= best {
			skip[s] = cached
			continue
		}
		skip[s], donor[s] = best, bestD
	}
	return skip, donor
}

// attachPrefix maps sequence s's planned shared prefix from its donor at
// one layer: the donor indexed its full prompt blocks there as its
// prompt completed (appendSpan), so the chain resolves through the
// index — to the donor's blocks, or to cached or live copies of the same
// tokens. Anything short of a full attach — donor retired and its
// blocks reclaimed, or the pool too tight to have kept them — is
// reported as block exhaustion so the caller's per-sequence isolation
// path handles it.
func (p *Pipeline) attachPrefix(s, l int) error {
	d := p.donor[s]
	got := p.cache.AttachPrefix(s, l, p.prompts[d], p.skip[s])
	if got != p.skip[s] {
		return fmt.Errorf("%w (seq %d layer %d: shared prefix unavailable, attached %d of %d)",
			kvcache.ErrOutOfBlocks, s, l, got, p.skip[s])
	}
	return nil
}

package engine

import (
	"fmt"

	"moelightning/internal/kvcache"
)

// prefill runs the prompt phase as passes of the bound step graph (the
// zigzag order of §4): each pass carries up to PrefillChunk of the
// wave's prompt tokens as rows — micro-batch j's from rowOff[j] on, each
// with its own position and owning sequence — and runs every layer over
// them exactly as a decode step runs its one row per sequence: a QKV
// GEMM batch per micro-batch, K/V offloaded to the CPU cache (prefill KV
// offloading, §4) and causal attention over each sequence's cached
// prefix on the CPU lane, the router per micro-batch, and one
// expert-grouped FFN per layer that buckets tokens by expert ACROSS
// sequences — so a wave of short prompts runs large GEMM triples
// instead of numSeqs x layers skinny ones. All kernels are
// row-independent and accumulate in fixed k-ascending /
// expert-id-ascending order, so the packed shapes are bit-identical to
// the sequence-at-a-time pass — and to reference.go — under both codecs
// and any chunk size.
//
// A prompt longer than one pass runs chunk-outer and layer-inner: the
// next pass continues it, every layer again. That is bit-identical too,
// because rows are independent and each token's causal attention reads
// the prefix earlier passes cached; what it costs is one more sweep of
// every layer's expert weights per pass.
//
// A sequence that exhausts the KV block pool or loses an expert mid-pass
// is marked in seqErr, and its rows ride along without write-back or
// counting, as in decode (a KV failure hands its blocks back at once).
// It retires at the pass boundary, never with lanes running: prefill
// fails only the offending request, never the wave.
//
// With SharedPrefix enabled, sequences whose prompts open with the same
// tokens as one earlier in issue order skip the matched prefix
// entirely: at the follower's first computed token the donor's cache
// blocks are mapped in place (refcount++, zero copies, zero FLOPs), and
// its rows start there. Attention reads the shared prefix through the
// same block views as everything else; because the donor's K/V rows for
// a prefix token depend only on (token id, position), the mapped rows
// are bit-identical to the rows the follower would have computed, so
// sharing changes no output bit under either codec.
//
// Each pass ends with the epilogue that seeds decode: a prompt whose
// last token was in the pass samples its first token from that row.
func (p *Pipeline) prefill(prompts [][]int) error {
	for s, prompt := range prompts {
		if len(prompt) == 0 {
			return fmt.Errorf("engine: empty prompt for sequence %d", s)
		}
	}
	p.prompts = prompts
	p.skip, p.donor = p.planPrefixReuse(prompts)
	copy(p.spanHi, p.skip) // where each sequence's first pass starts
	for k := 0; p.planPass(); k++ {
		if k == 0 {
			if err := p.primeLayer(0); err != nil {
				return err
			}
		}
		if err := p.runPass(k); err != nil {
			return err
		}
		p.passes = k + 1
		for s, err := range p.seqErr {
			if err != nil {
				p.retire(s) // a no-op for sequences retired at an earlier boundary
			}
		}
		p.sampleNext()
	}

	// PrefillTokens counts tokens actually computed; prefix-mapped tokens
	// land in PrefixHitTokens instead.
	prefilled, reused := 0, 0
	for s, prompt := range prompts {
		if p.seqErr[s] != nil {
			continue
		}
		prefilled += len(prompt) - p.skip[s]
		reused += p.skip[s]
	}
	p.PrefillTokens = prefilled
	p.Counters.PrefixHitTokens.Add(int64(reused))
	p.Counters.CowCopies.Store(p.cache.CowCopies())
	return nil
}

// planPass lays out the next prompt pass and reports whether it has any
// rows. Walking the live sequences in issue order — micro-batch order,
// then order within the micro-batch — each continues its prompt where
// the last pass stopped until the pass holds prefillChunk rows, so the
// passes slice the wave's prompt tokens in issue order and no sequence
// starts before every sequence ahead of it has finished its prompt.
func (p *Pipeline) planPass() bool {
	budget, rest := p.prefillChunk, 0
	for _, mb := range p.mbs {
		for _, s := range mb {
			p.spanLo[s] = p.spanHi[s]
			left := len(p.prompts[s]) - p.spanLo[s]
			take := min(left, budget)
			p.spanHi[s] = p.spanLo[s] + take
			budget -= take
			rest += left - take
		}
	}
	p.layRows()
	// The pass after this one routes what is left of the prompts or,
	// after the last prompt pass, the decode step's row per live sequence.
	p.nextRows = min(rest, p.prefillChunk)
	if rest == 0 {
		p.nextRows = p.liveRows()
	}
	return p.rowOff[len(p.mbs)] > 0
}

// planPrefixReuse pairs each sequence with the sequence ahead of it in
// issue order (micro-batch order, then order within the micro-batch)
// sharing its longest common prompt prefix, block-rounded to what
// AttachPrefix can map: a non-block-aligned match keeps its partial
// tail only when the donor's prompt runs through that block boundary
// (the tail block must be full on the donor's side to be indexable);
// otherwise it floors to whole blocks. Matches shorter than one block
// share nothing, and at least the prompt's last token is always
// computed — decode needs its hidden state. Returns per-sequence skip
// lengths and donor indices (-1 for none).
//
// A donor precedes its follower in issue order, the order passes take
// prompt tokens in and the CPU lane runs each layer's attention in, so
// the donor's whole prompt is cached at a layer before the follower
// attaches at it.
func (p *Pipeline) planPrefixReuse(prompts [][]int) (skip, donor []int) {
	skip = make([]int, len(prompts))
	donor = make([]int, len(prompts))
	for s := range donor {
		donor[s] = -1
	}
	if !p.sharedPrefix {
		return skip, donor
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
		if best > len(prompts[s])-1 {
			best = len(prompts[s]) - 1
		}
		if bestD >= 0 && best%bt != 0 && (best/bt+1)*bt > len(prompts[bestD]) {
			best = best / bt * bt
		}
		if best < bt {
			continue
		}
		skip[s], donor[s] = best, bestD
	}
	return skip, donor
}

// attachPrefix maps sequence s's planned shared prefix at one layer:
// it (idempotently) indexes the donor's full blocks, then attaches the
// chain. Anything short of a full attach — donor retired and its
// blocks reclaimed, or the pool too tight to have kept them — is
// reported as block exhaustion so the caller's per-sequence isolation
// path handles it.
func (p *Pipeline) attachPrefix(s, l int) error {
	d := p.donor[s]
	if p.seqErr[d] == nil {
		p.cache.IndexPrefix(d, l, p.prompts[d])
	}
	got := p.cache.AttachPrefix(s, l, p.prompts[d], p.skip[s])
	if got != p.skip[s] {
		return fmt.Errorf("%w (seq %d layer %d: shared prefix unavailable, attached %d of %d)",
			kvcache.ErrOutOfBlocks, s, l, got, p.skip[s])
	}
	return nil
}

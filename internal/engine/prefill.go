package engine

import (
	"errors"
	"fmt"

	"moelightning/internal/kvcache"
	"moelightning/internal/tensor"
)

// prefillSpan is one sequence's contiguous run of prompt tokens inside
// a packed chunk: tokens [tokLo, tokHi) of prompts[seq], occupying
// packed rows [off, off+tokHi-tokLo).
type prefillSpan struct {
	seq          int
	tokLo, tokHi int
	off          int
}

// prefill runs the prompt phase layer-by-layer (the zigzag order of
// §4) as a wave-packed pass: each layer's shared attention/router
// region streams into the double buffer once (expert blocks page
// individually, the next layer's predicted set prefetching behind the
// current layer's GEMMs), and the WHOLE wave's prompt tokens flow
// through it together. Per layer the live tokens are packed — in PrefillChunk-
// sized token-budget slices, so scratch is bounded by the chunk rather
// than the wave — and each chunk issues exactly one preAttn QKV GEMM
// batch over [chunkTokens, hidden] (per-token positions replace the
// shared 0..n-1 slice) and one route + expert-grouped FFN pass that
// buckets tokens by expert ACROSS sequences, so a wave of short
// prompts runs layers-many large GEMM triples instead of
// numSeqs x layers skinny ones. Causal attention stays per-sequence
// (each token reads only its own sequence's cached prefix, exactly the
// blockwise path decode and the reference use) but is fanned across
// the worker pool as one task set spanning every sequence in the
// chunk, so short prompts no longer serialize behind long ones. All
// kernels are row-independent and accumulate in fixed k-ascending /
// expert-id-ascending order, so the packed shapes are bit-identical to
// the sequence-at-a-time pass — and to reference.go — under both
// codecs and any chunk size.
//
// A sequence whose Append exhausts the KV block pool is retired on the
// spot — its error recorded in seqErr, its blocks released back to the
// pool for the survivors — and its rows are masked out of every
// subsequent chunk's packed GEMMs, so prefill-time exhaustion fails
// only the offending request, never the wave. Packing is row-gathered,
// so a retirement leaves the survivors' packed rows carrying exactly
// the values they would hold alone: their computation stays
// bit-identical.
//
// With SharedPrefix enabled, sequences whose prompts open with the
// same tokens as an earlier sequence of the wave skip the matched
// prefix entirely: the donor's cache blocks are mapped in place
// (refcount++, zero copies, zero FLOPs) and prefill starts at the
// first unmatched position. Attention reads the shared prefix through
// the same block views as everything else; because the donor's K/V
// rows for a prefix token depend only on (token id, position), the
// mapped rows are bit-identical to the rows the follower would have
// computed, so sharing changes no output bit under either codec.
func (p *Pipeline) prefill(prompts [][]int) error {
	cfg := p.w.Cfg
	layout := p.layout
	q, kv := cfg.QDim(), cfg.KVDim()

	skip, donor := p.planPrefixReuse(prompts)

	total := 0
	rowOf := make([]int, len(prompts)) // first packed row of each sequence
	for s, prompt := range prompts {
		if len(prompt) == 0 {
			return fmt.Errorf("engine: empty prompt for sequence %d", s)
		}
		rowOf[s] = total
		total += len(prompt) - skip[s]
	}

	chunk := p.prefillChunk
	if chunk <= 0 || chunk > total {
		chunk = total
	}

	// Wave-wide hidden states plus chunk-bounded packed workspaces
	// (prompt waves can exceed the decode micro-batch, so prefill
	// carries its own scratch, sized by the token budget — not by the
	// longest prompt).
	x := tensor.NewMat(total, cfg.Hidden)
	// xPack is only needed once a retirement punches a hole in the
	// packed rows; the common no-retirement wave never allocates it.
	var xPack tensor.Mat
	qkvBuf := make([]float32, chunk*(q+2*kv))
	attnOut := tensor.NewMat(chunk, q)
	positions := make([]int, chunk)
	rowSeq := make([]int, chunk) // packed row -> owning sequence
	scratch := newFFNScratch(layout, chunk)
	spans := make([]prefillSpan, 0, len(prompts))
	items := make([]tensor.CausalItem, 0, len(prompts))

	for s, prompt := range prompts {
		for t := skip[s]; t < len(prompt); t++ {
			copy(x.Row(rowOf[s]+t-skip[s]), p.w.Embedding.Row(prompt[t]))
		}
	}

	for l := 0; l < cfg.Layers; l++ {
		// Fault seam + cooperative abort at the layer boundary: a fired
		// stall blocks here (woken early by Abort), and a watchdog
		// abort ends the prefill before the next layer streams in.
		p.stallPoint()
		if aerr := p.abortedErr(); aerr != nil {
			return aerr
		}
		if err := p.loadSharedSync(l); err != nil {
			return err
		}
		// Announce the layer and hand the next one's predicted experts
		// to the prefetcher before this layer's chunks start computing,
		// so the fetches overlap the chunk GEMMs instead of serializing
		// after them. The last layer prefetches layer 0 for the first
		// decode step, on layer 0's now complete router statistics.
		// Nothing ran ahead of layer 0 to prefetch it, so its own set (no
		// statistics yet: id order) rides in front of layer 1's in one
		// request — a second Prefetch would replace the first. A prefill
		// layer routes every packed token, the decode step after the
		// last one only the sequences still live.
		switch {
		case l == 0:
			p.pager.BeginLayer(0, cfg.Layers)
			p.prefetchExperts(total, 0, p.realLayer(1))
		case l < cfg.Layers-1:
			p.beginLayer(l, total)
		default:
			p.beginLayer(l, p.liveRows())
		}
		shared := p.db.Slot(l).Data()
		p.expSrc.layer = l
		for lo := 0; lo < total; lo += chunk {
			hi := lo + chunk
			if hi > total {
				hi = total
			}

			// Collect the chunk's live spans (sequence-ascending, the same
			// order the sequence-at-a-time pass appended in): retired
			// sequences' rows are masked out of the packed batch here.
			spans = spans[:0]
			m := 0
			allLive := true
			for s, prompt := range prompts {
				a, b := lo-rowOf[s]+skip[s], hi-rowOf[s]+skip[s]
				if a < skip[s] {
					a = skip[s]
				}
				if b > len(prompt) {
					b = len(prompt)
				}
				if a >= b {
					continue
				}
				if p.seqErr[s] != nil {
					allLive = false // exhausted earlier; already retired
					continue
				}
				spans = append(spans, prefillSpan{seq: s, tokLo: a, tokHi: b, off: m})
				for t := a; t < b; t++ {
					positions[m] = t
					rowSeq[m] = s
					m++
				}
			}
			if m == 0 {
				continue
			}

			// One packed QKV GEMM batch over every live token of the
			// chunk. With every intersecting sequence live (the common
			// case) the chunk's rows are exactly x's [lo, hi) range and
			// the kernels run over them in place; after a retirement the
			// survivors' rows are gathered into xPack so dead rows stay
			// out of the packed shapes.
			rows := tensor.FromSlice(m, cfg.Hidden, x.Data[lo*cfg.Hidden:(lo+m)*cfg.Hidden])
			if !allLive {
				if xPack.Rows == 0 {
					xPack = tensor.NewMat(chunk, cfg.Hidden)
				}
				for _, sp := range spans {
					for t := sp.tokLo; t < sp.tokHi; t++ {
						copy(xPack.Row(sp.off+(t-sp.tokLo)), x.Row(rowOf[sp.seq]+t-skip[sp.seq]))
					}
				}
				rows = tensor.FromSlice(m, cfg.Hidden, xPack.Data[:m*cfg.Hidden])
			}
			qkv := qkvBuf[:m*(q+2*kv)]
			p.kern.preAttn(layout, shared, rows, positions[:m], qkv, scratch.normed)
			p.Counters.GPUKernels.Add(1) // the packed QKV launch
			queries, keys, values := qkvViews(qkv, m, q, kv)

			// Offload K/V to the CPU cache (prefill KV offloading, §4);
			// the cache quantizes on write under an Int8 codec, and the
			// movement counter accounts the bytes the offload actually
			// ships. An out-of-blocks Append retires just that sequence.
			for _, sp := range spans {
				s := sp.seq
				// First computed token at this layer: map the shared
				// prefix into this sequence's stream before appending the
				// divergent tail. The donor's rows for this layer are all
				// appended by now (its packed rows precede ours), so its
				// full blocks are indexable. A failed attach (donor
				// retired, blocks reclaimed) fails only this sequence.
				if skip[s] > 0 && sp.tokLo == skip[s] {
					if err := p.attachPrefix(s, l, prompts, skip, donor); err != nil {
						p.seqErr[s] = err
						p.retire(s)
						continue
					}
				}
				for t := sp.tokLo; t < sp.tokHi; t++ {
					r := sp.off + (t - sp.tokLo)
					if err := p.cache.Append(s, l, keys.Row(r), values.Row(r)); err != nil {
						if errors.Is(err, kvcache.ErrOutOfBlocks) {
							p.seqErr[s] = err
							p.retire(s)
							break
						}
						return err
					}
					p.Counters.DtoHBytes.Add(int64(p.cache.TokenBytes()))
				}
			}

			// If the Append loop starved every live sequence of the
			// chunk, there is nothing left to attend or project — skip
			// the remaining packed kernels rather than running (and
			// counting) them over dead rows.
			live := 0
			for _, sp := range spans {
				if p.seqErr[sp.seq] == nil {
					live++
				}
			}
			if live == 0 {
				continue
			}

			// Causal attention over each sequence's own cached prefix,
			// fanned across the pool as one task set spanning every
			// sequence of the chunk. Under F32 the blockwise kernel reads
			// the rows just appended in place (bit-identical to the flat
			// path); under Int8 each token attends over its quantized
			// prefix through the same dequant-aware kernel as decode (and
			// the reference), so pipeline-vs-reference bit-identity holds
			// with the codec enabled.
			items = items[:0]
			for _, sp := range spans {
				if p.seqErr[sp.seq] != nil {
					continue // starved mid-chunk: rows are dead from here on
				}
				n := sp.tokHi - sp.tokLo
				p.cache.View(sp.seq, l, &p.views[sp.seq])
				items = append(items, p.views[sp.seq].CausalItem(
					tensor.FromSlice(n, q, attnOut.Data[sp.off*q:(sp.off+n)*q]),
					tensor.FromSlice(n, q, queries.Data[sp.off*q:(sp.off+n)*q]), sp.tokLo))
			}
			tensor.AttendCausalMany(items, cfg.QHeads, cfg.KVHeads, cfg.HeadDim)

			// One expert-grouped FFN pass over the whole chunk: tokens
			// bucket by expert across sequences, one batched GEMM triple
			// per expert with work. Rows of a sequence starved mid-chunk
			// ride along (row independence keeps the survivors bit-exact)
			// but are neither scattered back nor counted.
			arows := tensor.FromSlice(m, q, attnOut.Data[:m*q])
			p.kern.route(layout, shared, arows, rows, scratch, 0)
			chosen := p.kern.ffn(layout, &p.expSrc, rows, scratch)
			// A failed expert fetch (past the pager's retry budget)
			// fails exactly the sequences routed to it this chunk:
			// retired on the spot, like an exhausted Append, before the
			// scatter below can propagate their corrupt rows.
			if scratch.expertErr != nil {
				p.failExpertRouted(l, chosen, rowSeq[:m], scratch)
				for _, sp := range spans {
					if p.seqErr[sp.seq] != nil {
						p.retire(sp.seq) // no-op for earlier retirees
					}
				}
			}
			for _, sp := range spans {
				if p.seqErr[sp.seq] != nil {
					continue
				}
				for r := sp.off; r < sp.off+(sp.tokHi-sp.tokLo); r++ {
					if !allLive {
						copy(x.Row(rowOf[sp.seq]+positions[r]-skip[sp.seq]), xPack.Row(r))
					}
					for _, e := range chosen[r] {
						p.ExpertLoad[l][e]++
					}
				}
			}
			// The packed FFN launch: with the QKV launch above, 2 per
			// (layer, chunk) with surviving work — the kernels a GPU
			// would actually see, not a per-sequence count.
			p.Counters.GPUKernels.Add(1)
		}
	}

	// Last-token hidden states seed decode (retired sequences never
	// reach decode, so their stale rows are harmless). PrefillTokens
	// counts tokens actually computed; prefix-mapped tokens land in
	// PrefixHitTokens instead.
	prefilled, reused := 0, 0
	for s, prompt := range prompts {
		if p.seqErr[s] != nil {
			continue
		}
		copy(p.hidden.Row(s), x.Row(rowOf[s]+len(prompt)-1-skip[s]))
		prefilled += len(prompt) - skip[s]
		reused += skip[s]
	}
	p.PrefillTokens = prefilled
	p.Counters.PrefixHitTokens.Add(int64(reused))
	p.Counters.CowCopies.Store(p.cache.CowCopies())
	return nil
}

// planPrefixReuse pairs each sequence with the earlier sequence of the
// wave sharing its longest common prompt prefix, block-rounded to what
// AttachPrefix can map: a non-block-aligned match keeps its partial
// tail only when the donor's prompt runs through that block boundary
// (the tail block must be full on the donor's side to be indexable);
// otherwise it floors to whole blocks. Matches shorter than one block
// share nothing, and at least the prompt's last token is always
// computed — decode needs its hidden state. Returns per-sequence skip
// lengths and donor indices (-1 for none).
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
	for s := 1; s < len(prompts); s++ {
		best, bestD := 0, -1
		for d := 0; d < s; d++ {
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
func (p *Pipeline) attachPrefix(s, l int, prompts [][]int, skip, donor []int) error {
	d := donor[s]
	if p.seqErr[d] == nil {
		p.cache.IndexPrefix(d, l, prompts[d])
	}
	got := p.cache.AttachPrefix(s, l, prompts[d], skip[s])
	if got != skip[s] {
		return fmt.Errorf("%w (seq %d layer %d: shared prefix unavailable, attached %d of %d)",
			kvcache.ErrOutOfBlocks, s, l, got, skip[s])
	}
	return nil
}

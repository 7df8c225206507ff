package tensor

import "math"

// GQA attention kernels. Layout conventions:
//   - q is one token's query vector, nq heads x headDim;
//   - keys/values are the cached context, one row per token, each row
//     nkv heads x headDim;
//   - GQA shares each KV head across nq/nkv query heads;
//   - the context may arrive flat (one Mat) or paged (a list of block
//     Mats in token order). Both paths compute every score, the
//     softmax and the weighted sum in the same k-ascending order, so
//     the blockwise kernels are bit-identical to the flat ones.

// attnScores computes scores[i] = <qh, keys.Row(i)[kv head slice]> *
// scale for every row of keys. Two keys are kept in flight per
// iteration: head dimensions are short, so a single dot product is
// latency-bound on its accumulation chain. Each score's own
// accumulation order is a single ascending chain either way.
func attnScores(scores, qh []float32, keys Mat, kvh, headDim int, scale float32) {
	ctx := keys.Rows
	t := 0
	for ; t+2 <= ctx; t += 2 {
		k0 := keys.Row(t)[kvh*headDim : (kvh+1)*headDim]
		k1 := keys.Row(t + 1)[kvh*headDim : (kvh+1)*headDim]
		var s0, s1 float32
		for i, qv := range qh {
			s0 += qv * k0[i]
			s1 += qv * k1[i]
		}
		scores[t], scores[t+1] = s0*scale, s1*scale
	}
	for ; t < ctx; t++ {
		kRow := keys.Row(t)[kvh*headDim : (kvh+1)*headDim]
		scores[t] = Dot(qh, kRow) * scale
	}
}

// attnCombine accumulates oh += scores[i] * values.Row(i)[kv head
// slice] over the rows of values, in ascending row order.
func attnCombine(oh, scores []float32, values Mat, kvh, headDim int) {
	for t := 0; t < values.Rows; t++ {
		vRow := values.Row(t)[kvh*headDim : (kvh+1)*headDim]
		Axpy(scores[t], vRow, oh)
	}
}

// AttendOne computes single-token GQA attention: out = softmax(q K^T /
// sqrt(d)) V over ctx cached tokens. keys and values are [ctx,
// nkv*headDim]; out must be nq*headDim long. scores is scratch of
// length >= ctx (allocated when nil).
func AttendOne(out, q []float32, keys, values Mat, nq, nkv, headDim int, scores []float32) {
	ctx := keys.Rows
	if scores == nil || len(scores) < ctx {
		scores = make([]float32, ctx)
	}
	group := nq / nkv
	scale := float32(1 / math.Sqrt(float64(headDim)))
	for h := 0; h < nq; h++ {
		kvh := h / group
		qh := q[h*headDim : (h+1)*headDim]
		attnScores(scores[:ctx], qh, keys, kvh, headDim, scale)
		Softmax(scores[:ctx])
		oh := out[h*headDim : (h+1)*headDim]
		for i := range oh {
			oh[i] = 0
		}
		attnCombine(oh, scores[:ctx], values, kvh, headDim)
	}
}

// BlocksRows returns the total row (token) count of a block list.
func BlocksRows(blocks []Mat) int {
	n := 0
	for _, b := range blocks {
		n += b.Rows
	}
	return n
}

// AttendOneBlocks is AttendOne over a paged context: keys[b] and
// values[b] are the b-th block's rows, in token order (the last block
// may be partial). It walks the block list in place — no gathered
// copy — computing scores block by block into one contiguous buffer,
// one softmax over the whole context, and the weighted sum in the
// same ascending token order, so the output is bit-identical to
// AttendOne over the gathered context. scores is scratch of length >=
// the total context (allocated when nil).
func AttendOneBlocks(out, q []float32, keys, values []Mat, nq, nkv, headDim int, scores []float32) {
	ctx := BlocksRows(keys)
	if scores == nil || len(scores) < ctx {
		scores = make([]float32, ctx)
	}
	group := nq / nkv
	scale := float32(1 / math.Sqrt(float64(headDim)))
	for h := 0; h < nq; h++ {
		kvh := h / group
		qh := q[h*headDim : (h+1)*headDim]
		base := 0
		for _, kb := range keys {
			attnScores(scores[base:base+kb.Rows], qh, kb, kvh, headDim, scale)
			base += kb.Rows
		}
		Softmax(scores[:ctx])
		oh := out[h*headDim : (h+1)*headDim]
		for i := range oh {
			oh[i] = 0
		}
		base = 0
		for _, vb := range values {
			attnCombine(oh, scores[base:base+vb.Rows], vb, kvh, headDim)
			base += vb.Rows
		}
	}
}

// AttnItem is one independent single-token attention problem for
// AttendMany. Out and Q are nq*headDim vectors; the context is flat
// (Keys/Values), paged (KeyBlocks/ValueBlocks — the zero-copy path
// over a paged KV cache) or paged and int8-quantized (KeyQBlocks/
// ValueQBlocks, which win over both — attention dequantizes rows on
// the fly). Scores is optional per-item scratch: length >= the context
// for the flat and paged paths, >= (nq/nkv)*ctx for the quantized path
// (one score lane per query head of a GQA group). RowScratch is
// optional headDim scratch for the quantized path. Each is allocated
// when nil or undersized; pass adequately sized scratch for zero-alloc
// steady state.
type AttnItem struct {
	Out, Q, Scores           []float32
	Keys, Values             Mat
	KeyBlocks, ValueBlocks   []Mat
	KeyQBlocks, ValueQBlocks []QBlock
	RowScratch               []float32
}

// attend solves one item, dispatching on its context representation.
func (it *AttnItem) attend(nq, nkv, headDim int) {
	if len(it.KeyQBlocks) > 0 {
		AttendOneBlocksQ(it.Out, it.Q, it.KeyQBlocks, it.ValueQBlocks, nq, nkv, headDim, it.Scores, it.RowScratch)
		return
	}
	if len(it.KeyBlocks) > 0 {
		AttendOneBlocks(it.Out, it.Q, it.KeyBlocks, it.ValueBlocks, nq, nkv, headDim, it.Scores)
		return
	}
	AttendOne(it.Out, it.Q, it.Keys, it.Values, nq, nkv, headDim, it.Scores)
}

// AttendMany computes a batch of independent single-token GQA attention
// problems, fanned out across the default worker pool one item at a
// time (items are coarse-grained: each is O(ctx * nq * headDim) work).
// Bit-identical to solving each item sequentially, whether its context
// is flat or paged.
func AttendMany(items []AttnItem, nq, nkv, headDim int) {
	Default().ParallelFor(len(items), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			items[i].attend(nq, nkv, headDim)
		}
	})
}

// BlocksPrefix appends views of the first n rows of a float32 block
// list to dst (the last view possibly partial) — how causal attention
// scopes token t to its t+1-row prefix without copying. The float32
// analogue of QBlocksPrefix.
func BlocksPrefix(dst, blocks []Mat, n int) []Mat {
	for _, b := range blocks {
		if n <= 0 {
			break
		}
		rows := b.Rows
		if rows > n {
			rows = n
		}
		dst = append(dst, Mat{Rows: rows, Cols: b.Cols, Data: b.Data[:rows*b.Cols]})
		n -= rows
	}
	return dst
}

// CausalItem is one sequence's slice of a wave-packed prefill chunk:
// Queries holds n consecutive prompt tokens' query vectors (each
// nq*headDim rows of a Mat), Out the matching output rows, and the
// context is the sequence's cached prefix — paged float32 blocks
// (KeyBlocks/ValueBlocks) or int8-quantized blocks (KeyQBlocks/
// ValueQBlocks). StartPos is the absolute prompt position of
// Queries.Row(0): token i attends causally over the first StartPos+i+1
// context rows, so a prompt split across token-budget chunks still
// sees exactly its own prefix.
type CausalItem struct {
	Out, Queries             Mat
	KeyBlocks, ValueBlocks   []Mat
	KeyQBlocks, ValueQBlocks []QBlock
	StartPos                 int
}

// causalManyBounds splits the flattened (item, token) index space into
// chunk boundaries of near-equal attention COST, not token count:
// token i of an item costs StartPos+i+1 context rows, so equal-count
// ranges would leave the worker holding a long prompt's tail ~2x the
// average work. Returns nil when there is nothing to do.
func causalManyBounds(items []CausalItem, chunks, total int) []int {
	if chunks > total {
		chunks = total
	}
	if chunks < 1 {
		return nil
	}
	var cost float64
	for i := range items {
		n, s := float64(items[i].Queries.Rows), float64(items[i].StartPos)
		cost += n*s + n*(n+1)/2
	}
	bounds := make([]int, 1, chunks+1)
	var acc float64
	target := cost / float64(chunks)
	g := 0
	for i := range items {
		it := &items[i]
		for t := 0; t < it.Queries.Rows; t++ {
			acc += float64(it.StartPos + t + 1)
			g++
			if acc >= target*float64(len(bounds)) && len(bounds) < chunks {
				bounds = append(bounds, g)
			}
		}
	}
	return append(bounds, total)
}

// AttendCausalMany computes causal prefill attention for a whole
// packed chunk — every sequence's query tokens — as one task set
// fanned across the default worker pool: the flattened (item, token)
// index space is split into contiguous ranges of near-equal attention
// cost (causalManyBounds), so short prompts never serialize behind
// long ones the way a per-sequence loop would force them to.
// Each token's problem reads only its own cached prefix (scoped by
// BlocksPrefix/QBlocksPrefix views) and writes only its own output
// row, so the fan-out is bit-identical to solving every item
// sequentially — and, by the blockwise-kernel invariants, to flat
// per-token AttendOne over the same values.
func AttendCausalMany(items []CausalItem, nq, nkv, headDim int) {
	total, maxCtx, maxBlocks := 0, 0, 0
	for i := range items {
		it := &items[i]
		total += it.Queries.Rows
		if c := it.StartPos + it.Queries.Rows; c > maxCtx {
			maxCtx = c
		}
		if nb := len(it.KeyBlocks) + len(it.KeyQBlocks); nb > maxBlocks {
			maxBlocks = nb
		}
	}
	pool := Default()
	bounds := causalManyBounds(items, pool.Workers(), total)
	if bounds == nil {
		return
	}
	group := nq / nkv
	pool.ParallelFor(len(bounds)-1, 1, func(clo, chi int) {
		lo, hi := bounds[clo], bounds[chi]
		// Per-worker scratch, sized once for the chunk's worst token
		// (the quantized score layout covers the float32 one).
		scores := make([]float32, group*maxCtx)
		rowBuf := make([]float32, headDim)
		kp := make([]Mat, 0, maxBlocks)
		vp := make([]Mat, 0, maxBlocks)
		qkp := make([]QBlock, 0, maxBlocks)
		qvp := make([]QBlock, 0, maxBlocks)
		base := 0
		for i := range items {
			it := &items[i]
			n := it.Queries.Rows
			a, b := lo-base, hi-base
			base += n
			if a < 0 {
				a = 0
			}
			if b > n {
				b = n
			}
			for t := a; t < b; t++ {
				ctx := it.StartPos + t + 1
				if len(it.KeyQBlocks) > 0 {
					qkp = QBlocksPrefix(qkp[:0], it.KeyQBlocks, ctx)
					qvp = QBlocksPrefix(qvp[:0], it.ValueQBlocks, ctx)
					AttendOneBlocksQ(it.Out.Row(t), it.Queries.Row(t), qkp, qvp,
						nq, nkv, headDim, scores[:group*ctx], rowBuf)
				} else {
					kp = BlocksPrefix(kp[:0], it.KeyBlocks, ctx)
					vp = BlocksPrefix(vp[:0], it.ValueBlocks, ctx)
					AttendOneBlocks(it.Out.Row(t), it.Queries.Row(t), kp, vp,
						nq, nkv, headDim, scores[:ctx])
				}
			}
			if base >= hi {
				break
			}
		}
	})
}

package kvcache

import "moelightning/internal/tensor"

// View is a reusable window onto one (sequence, layer) stream for
// attention: the stream's block list under the cache's codec plus the
// scratch attention over it needs. It is the one place the codec picks
// a block-view method and a kernel, so callers attend
// over an F32 and an Int8 cache with the same code. The zero value is
// ready; Cache.View refills it in place and it grows to the longest
// context it has held, so a warm refill allocates nothing. The block
// lists alias the cache (see BlockView); the scratch belongs to the
// view, so one view serves one attention problem at a time.
type View struct {
	keys, values   []tensor.Mat
	qkeys, qvalues []tensor.QBlock
	ctx, kvDim     int
	scores         []float32
}

// View points v at the sequence's cached context at one layer, as
// BlockView or QBlockView would expose it.
func (c *Cache) View(seq, layer int, v *View) {
	v.kvDim = c.kvDim
	v.keys, v.values, v.qkeys, v.qvalues = v.keys[:0], v.values[:0], v.qkeys[:0], v.qvalues[:0]
	if c.dtype != Int8 {
		v.keys, v.values, v.ctx = c.BlockView(seq, layer, v.keys, v.values)
		return
	}
	v.qkeys, v.qvalues, v.ctx = c.QBlockView(seq, layer, v.qkeys, v.qvalues)
}

// AttnItem is the single-token attention problem of query q (all query
// heads) over the viewed context, written to out. Attention scores a
// whole GQA group per key under either codec, one score lane per query
// head of the group — len(q)/kvDim of them, both being a head count
// times the head dimension.
func (v *View) AttnItem(out, q []float32) tensor.AttnItem {
	need := v.ctx * (len(q) / v.kvDim)
	if need > len(v.scores) {
		v.scores = make([]float32, 2*need)
	}
	return tensor.AttnItem{
		Out: out, Q: q, Scores: v.scores[:need],
		KeyBlocks: v.keys, ValueBlocks: v.values,
		KeyQBlocks: v.qkeys, ValueQBlocks: v.qvalues,
	}
}

// CausalItem is a packed prefill chunk's slice of the viewed sequence:
// queries are consecutive prompt tokens, the first at absolute position
// startPos, each attending over its own prefix of the viewed context.
func (v *View) CausalItem(out, queries tensor.Mat, startPos int) tensor.CausalItem {
	return tensor.CausalItem{
		Out: out, Queries: queries, StartPos: startPos,
		KeyBlocks: v.keys, ValueBlocks: v.values,
		KeyQBlocks: v.qkeys, ValueQBlocks: v.qvalues,
	}
}

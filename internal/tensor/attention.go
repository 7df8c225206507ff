package tensor

import "math"

// GQA attention kernels. Layout conventions:
//   - q is one token's query vector, nq heads x headDim;
//   - keys/values are the cached context, one row per token, each row
//     nkv heads x headDim;
//   - GQA shares each KV head across a group of nq/nkv query heads;
//   - the context arrives paged, as the KV cache holds it: a list of
//     float32 block Mats in token order, or of int8 QBlocks.
//
// Both codecs run one body, attend: per KV head, score the group's
// query heads against each key (a GEMM element: one accumulator over
// headDim in ascending order), scale, one softmax per head over the
// whole context, then the weighted sum of the values (one accumulator
// per output element over t in ascending order, as Axpy). Blocks are
// walked in place; the codecs differ only in how a block's head slice
// is read (kvBlocks.chunk), so the output does not depend on where the
// block boundaries fall, and the int8 path is bit-identical to the
// float32 one over the dequantized values.

// attnStackDim is the widest head the attention scratch holds on the
// stack: 128, the widest head of every model preset. The vector kernels
// run up to it; a wider head runs the Go kernels.
const attnStackDim = 128

// attnScratch is one attention call's stack scratch: the query panel the
// score kernel reads (up to eight heads, k-major: panel[i*8+g] is head
// g's element i, as matMulTVec lays out a rows stripe), rows of decoded
// (int8) or gathered (short float32 block) head slices, and an 8x8 score
// tile for chunks shorter than the score kernel's eight columns.
type attnScratch struct {
	panel [attnStackDim * 8]float32
	rows  [attnStackDim * 8]float32
	tile  [8 * 8]float32
}

// kvBlocks is one operand of attention — a context's keys or its values
// — as float32 blocks (f) or int8 blocks (q), one of them empty.
type kvBlocks struct {
	f []Mat
	q []QBlock
}

// blocksOf picks an item's codec: int8 blocks win when set.
func blocksOf(f []Mat, q []QBlock) kvBlocks {
	if len(q) > 0 {
		return kvBlocks{q: q}
	}
	return kvBlocks{f: f}
}

func (s kvBlocks) count() int { return len(s.f) + len(s.q) }

func (s kvBlocks) tokens() int { return BlocksRows(s.f) + QBlocksRows(s.q) }

func (s kvBlocks) blockRows(b int) int {
	if len(s.q) > 0 {
		return s.q[b].Rows
	}
	return s.f[b].Rows
}

// prefix returns views of the first n rows, appended to dst's emptied
// lists (see BlocksPrefix).
func (s kvBlocks) prefix(dst kvBlocks, n int) kvBlocks {
	return kvBlocks{f: BlocksPrefix(dst.f[:0], s.f, n), q: QBlocksPrefix(dst.q[:0], s.q, n)}
}

// chunk returns rows [t, t+n) of block b's head slice [lo, lo+headDim),
// row r at x[r*ld:], n >= 1 — the one place the codecs differ. Float32
// rows are read in place, the rest of the block at once; int8 rows are
// decoded into buf, as many as it holds, in one dequantizeRows call (on
// the AVX2 lanes where the head slice is whole words of eight codes).
func (s kvBlocks) chunk(b, t, lo, headDim int, buf []float32) (x []float32, ld, n int) {
	if len(s.q) == 0 {
		m := s.f[b]
		return m.Data[t*m.Cols+lo:], m.Cols, m.Rows - t
	}
	qb := s.q[b]
	n = min(qb.Rows-t, len(buf)/headDim)
	qb.dequantizeRows(buf, t, n, lo, headDim)
	return buf, headDim, n
}

// attend is single-token GQA attention, out = softmax(q K^T / sqrt(d))
// V, over either codec of a paged context. scores is scratch of
// length >= (nq/nkv)*ctx, one ctx-long lane per query head of a group;
// rowBuf is int8 decode scratch of length >= headDim, read only when a
// head is wider than the stack's 8*attnStackDim decode rows. Each is
// allocated when short.
func attend(out, q []float32, keys, values kvBlocks, nq, nkv, headDim int, scores, rowBuf []float32) {
	ctx := keys.tokens()
	group := nq / nkv
	if len(scores) < group*ctx {
		scores = make([]float32, group*ctx)
	}
	var ws attnScratch
	buf := ws.rows[:]
	if headDim > len(buf) {
		if len(rowBuf) < headDim {
			rowBuf = make([]float32, headDim)
		}
		buf = rowBuf
	}
	vec := useAVX2 && headDim%8 == 0 && headDim <= attnStackDim
	scale := float32(1 / math.Sqrt(float64(headDim)))
	for kvh := 0; kvh < nkv; kvh++ {
		// The score kernel's lanes hold eight query heads: a larger group
		// is attended eight heads at a time.
		for g := 0; g < group; g += 8 {
			h, hn := kvh*group+g, min(8, group-g)
			attendHeads(out[h*headDim:(h+hn)*headDim], q[h*headDim:(h+hn)*headDim], keys, values,
				kvh*headDim, headDim, ctx, scores[:hn*ctx], scale, vec, &ws, buf)
		}
	}
}

// attendHeads attends the query heads q (rows of headDim, all sharing
// the KV head whose slice starts at column lo) into out, with scores
// holding one ctx-long lane per head.
func attendHeads(out, q []float32, keys, values kvBlocks, lo, headDim, ctx int, scores []float32,
	scale float32, vec bool, ws *attnScratch, buf []float32) {
	hn := len(q) / headDim
	if vec {
		for g := 0; g < hn; g++ {
			lane := ws.panel[g:]
			for i, v := range q[g*headDim : (g+1)*headDim] {
				lane[i*8] = v
			}
		}
	}
	base := 0
	for b := range keys.count() {
		for t, rows := 0, keys.blockRows(b); t < rows; {
			x, ld, n := keys.chunk(b, t, lo, headDim, buf)
			if vec {
				scoresVec(scores[base:], ctx, hn, x, ld, n, headDim, ws)
			} else {
				scoresGo(scores[base:], ctx, q, x, ld, n, headDim)
			}
			t, base = t+n, base+n
		}
	}
	v := 0
	if vec {
		v = len(scores) &^ 7
		if v > 0 {
			scaleAVX2(&scores[0], v, scale)
		}
	}
	for i := v; i < len(scores); i++ {
		scores[i] *= scale
	}
	for g := 0; g < hn; g++ {
		Softmax(scores[g*ctx : (g+1)*ctx])
	}
	clear(out)
	base = 0
	for b := range values.count() {
		for t, rows := 0, values.blockRows(b); t < rows; {
			x, ld, n := values.chunk(b, t, lo, headDim, buf)
			if vec {
				combineVec(out, scores[base:], ctx, x, ld, n, headDim)
			} else {
				combineGo(out, scores[base:], ctx, x, ld, n, headDim)
			}
			t, base = t+n, base+n
		}
	}
}

// scoresGo is the score step's definition: s[g*ctx+r] = <q_g, x_r> for
// each query head g and chunk row r, one Dot each.
func scoresGo(s []float32, ctx int, q, x []float32, ld, n, headDim int) {
	hn := len(q) / headDim
	for r := 0; r < n; r++ {
		row := x[r*ld : r*ld+headDim]
		for g := 0; g < hn; g++ {
			s[g*ctx+r] = Dot(q[g*headDim:(g+1)*headDim], row)
		}
	}
}

// scoresVec is scoresGo on the GEMM tile: lanes across the query heads
// in ws.panel, eight chunk rows a block, dst row g at s[g*ctx:].
func scoresVec(s []float32, ctx, hn int, x []float32, ld, n, headDim int, ws *attnScratch) {
	if n < 8 {
		// Fewer rows than the tile's columns: gather them where eight rows
		// are readable (an int8 chunk is there already) and score into
		// the tile.
		for r := 0; r < n; r++ {
			copy(ws.rows[r*headDim:(r+1)*headDim], x[r*ld:r*ld+headDim])
		}
		gemmPanel8AVX2(&ws.tile[0], 8, hn, &ws.panel[0], headDim, &ws.rows[0], headDim, 1)
		for g := 0; g < hn; g++ {
			copy(s[g*ctx:g*ctx+n], ws.tile[g*8:g*8+n])
		}
		return
	}
	gemmPanel8AVX2(&s[0], ctx, hn, &ws.panel[0], headDim, &x[0], ld, n/8)
	if n%8 != 0 {
		// The last eight rows: the overlap is written again, same bits.
		gemmPanel8AVX2(&s[n-8], ctx, hn, &ws.panel[0], headDim, &x[(n-8)*ld], ld, 1)
	}
}

// combineGo is the combine step's definition: out_g += p[g*ctx+r] * x_r
// for each chunk row r in ascending order.
func combineGo(out, p []float32, ctx int, x []float32, ld, n, headDim int) {
	hn := len(out) / headDim
	for r := 0; r < n; r++ {
		row := x[r*ld : r*ld+headDim]
		for g := 0; g < hn; g++ {
			Axpy(p[g*ctx+r], row, out[g*headDim:(g+1)*headDim])
		}
	}
}

// combineVec is combineGo on axpyRowsAVX2, four heads a call.
func combineVec(out, p []float32, ctx int, x []float32, ld, n, headDim int) {
	hn := len(out) / headDim
	for g := 0; g < hn; g += 4 {
		axpyRowsAVX2(&out[g*headDim], headDim, min(4, hn-g), &p[g*ctx], ctx, &x[0], ld, n, headDim)
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

// AttnItem is one independent single-token attention problem for
// AttendMany: out = softmax(q K^T / sqrt(d)) V over a paged context.
// Out and Q are nq*headDim vectors. The context is float32 blocks
// (KeyBlocks/ValueBlocks) or int8 blocks (KeyQBlocks/ValueQBlocks,
// which win when set; each block's head slice is decoded a chunk of rows
// at a time into stack scratch, on the AVX2 lanes where the host has
// them, and the float32 kernels read the chunk), in token order,
// the last block possibly partial, walked in place. Scores is optional
// scratch of length >= (nq/nkv)*ctx, one score lane per query head of a
// GQA group. RowScratch is optional headDim scratch the int8 path
// decodes into when a head is wider than its stack rows. Each is
// allocated when nil or undersized; pass adequately sized scratch for
// zero-alloc steady state.
type AttnItem struct {
	Out, Q, Scores           []float32
	KeyBlocks, ValueBlocks   []Mat
	KeyQBlocks, ValueQBlocks []QBlock
	RowScratch               []float32
}

// attend solves one item.
func (it *AttnItem) attend(nq, nkv, headDim int) {
	attend(it.Out, it.Q, blocksOf(it.KeyBlocks, it.KeyQBlocks), blocksOf(it.ValueBlocks, it.ValueQBlocks),
		nq, nkv, headDim, it.Scores, it.RowScratch)
}

// AttendMany computes a batch of independent single-token GQA attention
// problems, fanned out across the default worker pool one item at a
// time (items are coarse-grained: each is O(ctx * nq * headDim) work).
// Bit-identical to solving each item sequentially, on either codec.
// Where the pool would run every item inline the
// items run here, so a caller passing sized scratch allocates nothing.
func AttendMany(items []AttnItem, nq, nkv, headDim int) {
	pool := Default()
	if pool.Workers() == 1 || len(items) == 1 {
		for i := range items {
			items[i].attend(nq, nkv, headDim)
		}
		return
	}
	pool.ParallelFor(len(items), 1, func(lo, hi int) {
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
// sequentially — and, since block boundaries do not change the output,
// to a one-token AttendMany item per token over its prefix.
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
		// Per-worker scratch, sized once for the chunk's worst token.
		scores := make([]float32, group*maxCtx)
		kp := kvBlocks{f: make([]Mat, 0, maxBlocks), q: make([]QBlock, 0, maxBlocks)}
		vp := kvBlocks{f: make([]Mat, 0, maxBlocks), q: make([]QBlock, 0, maxBlocks)}
		base := 0
		for i := range items {
			it := &items[i]
			keys, values := blocksOf(it.KeyBlocks, it.KeyQBlocks), blocksOf(it.ValueBlocks, it.ValueQBlocks)
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
				kp, vp = keys.prefix(kp, ctx), values.prefix(vp, ctx)
				attend(it.Out.Row(t), it.Queries.Row(t), kp, vp, nq, nkv, headDim, scores[:group*ctx], nil)
			}
			if base >= hi {
				break
			}
		}
	})
}

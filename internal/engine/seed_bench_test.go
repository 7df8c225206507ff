package engine

// The seed scalar forward path, preserved verbatim (modulo the QKV
// buffer's block layout and the split of post-attention at the router,
// which are plumbing) as the benchmark baseline
// for the expert-grouped rewrite: token-at-a-time GEMVs, per-call
// allocations, O(n*k^2) top-k and sequential attention, exactly as the
// engine shipped before the kernel subsystem landed.

import (
	"math"

	"moelightning/internal/tensor"
)

// seedRoPE is the seed rotary kernel: Pow and Sincos per element pair,
// recomputed for every head.
func seedRoPE(x []float32, headDim, pos int, theta float64) {
	for h := 0; h+headDim <= len(x); h += headDim {
		for i := 0; i < headDim/2; i++ {
			freq := 1 / math.Pow(theta, float64(2*i)/float64(headDim))
			angle := float64(pos) * freq
			sin, cos := math.Sincos(angle)
			a, b := x[h+2*i], x[h+2*i+1]
			x[h+2*i] = a*float32(cos) - b*float32(sin)
			x[h+2*i+1] = a*float32(sin) + b*float32(cos)
		}
	}
}

// seedMatMulT is the seed single-accumulator kernel.
func seedMatMulT(dst, a, bT tensor.Mat) {
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		for j := 0; j < bT.Rows; j++ {
			br := bT.Row(j)
			var sum float32
			for k, av := range ar {
				sum += float32(av * br[k])
			}
			dr[j] = sum
		}
	}
}

// seedTopK is the seed O(n*k^2) selection with the rescan.
func seedTopK(x []float32, k int) []int {
	if k > len(x) {
		k = len(x)
	}
	contains := func(xs []int, v int) bool {
		for _, x := range xs {
			if x == v {
				return true
			}
		}
		return false
	}
	idx := make([]int, 0, k)
	for n := 0; n < k; n++ {
		best := -1
		for i, v := range x {
			if contains(idx, i) {
				continue
			}
			if best < 0 || v > x[best] {
				best = i
			}
		}
		idx = append(idx, best)
	}
	return idx
}

// seedScratch is the seed per-token workspace.
type seedScratch struct {
	proj, normed, ffnOut []float32
	logits, gateWeights  []float32
	gateAct, upAct       []float32
}

func newSeedScratch(layout Layout) *seedScratch {
	cfg := layout.cfg
	return &seedScratch{
		proj:        make([]float32, cfg.Hidden),
		normed:      make([]float32, cfg.Hidden),
		ffnOut:      make([]float32, cfg.Hidden),
		logits:      make([]float32, cfg.Experts),
		gateWeights: make([]float32, cfg.Experts),
		gateAct:     make([]float32, cfg.Intermediate),
		upAct:       make([]float32, cfg.Intermediate),
	}
}

func seedPreAttention(layout Layout, layer []float32, x tensor.Mat, positions []int, qkv []float32) {
	cfg := layout.cfg
	q, kv := cfg.QDim(), cfg.KVDim()
	Q, K, V := qkvViews(qkv, x.Rows, q, kv)
	normed := make([]float32, cfg.Hidden)
	wq, wk, wv := layout.Wq(layer), layout.Wk(layer), layout.Wv(layer)
	norm := layout.AttnNorm(layer)
	for i := 0; i < x.Rows; i++ {
		tensor.RMSNorm(normed, x.Row(i), norm, 1e-5)
		nm := tensor.FromSlice(1, cfg.Hidden, normed)
		seedMatMulT(tensor.FromSlice(1, q, Q.Row(i)), nm, wq)
		seedMatMulT(tensor.FromSlice(1, kv, K.Row(i)), nm, wk)
		seedMatMulT(tensor.FromSlice(1, kv, V.Row(i)), nm, wv)
		seedRoPE(Q.Row(i), cfg.HeadDim, positions[i], ropeTheta)
		seedRoPE(K.Row(i), cfg.HeadDim, positions[i], ropeTheta)
	}
}

// seedPostAttention is the seed post-attention, token at a time: like
// postAttention it is its two halves back to back, which is how the
// pipeline's hooks call them.
func seedPostAttention(layout Layout, shared []float32, experts expertSource, attnOut, x tensor.Mat, scratch *seedScratch, rows *ffnScratch) [][]int {
	seedPostRoute(layout, shared, attnOut, x, scratch, rows, 0)
	return seedExpertFFN(layout, experts, x, scratch, rows)
}

// seedPostRoute leaves each token's normed row, chosen experts and gate
// weights in rows [off, off+n) of the pipeline's scratch, where
// seedExpertFFN finds them; its own workspace stays one token wide.
func seedPostRoute(layout Layout, shared []float32, attnOut, x tensor.Mat, scratch *seedScratch, rows *ffnScratch, off int) {
	cfg := layout.cfg
	wo := layout.Wo(shared)
	router := layout.Router(shared)
	norm := layout.FFNNorm(shared)

	for i := 0; i < x.Rows; i++ {
		// O projection + residual.
		ao := tensor.FromSlice(1, cfg.QDim(), attnOut.Row(i))
		seedMatMulT(tensor.FromSlice(1, cfg.Hidden, scratch.proj), ao, wo)
		tensor.Add(x.Row(i), x.Row(i), scratch.proj)

		// FFN norm.
		normed := rows.normed[(off+i)*cfg.Hidden : (off+i+1)*cfg.Hidden]
		tensor.RMSNorm(normed, x.Row(i), norm, 1e-5)
		nm := tensor.FromSlice(1, cfg.Hidden, normed)

		// Router: softmax over top-k logits, renormalized (Mixtral).
		seedMatMulT(tensor.FromSlice(1, cfg.Experts, scratch.logits), nm, router)
		topk := seedTopK(scratch.logits, cfg.TopK)
		rows.chosen[off+i] = topk
		copy(scratch.gateWeights, scratch.logits)
		sel := make([]float32, len(topk))
		for j, e := range topk {
			sel[j] = scratch.gateWeights[e]
		}
		tensor.Softmax(sel)
		copy(rows.sel[(off+i)*cfg.TopK:], sel)
	}
}

func seedExpertFFN(layout Layout, experts expertSource, x tensor.Mat, scratch *seedScratch, rows *ffnScratch) [][]int {
	cfg := layout.cfg
	for i := 0; i < x.Rows; i++ {
		nm := tensor.FromSlice(1, cfg.Hidden, rows.normed[i*cfg.Hidden:(i+1)*cfg.Hidden])
		sel := rows.sel[i*cfg.TopK:]

		// Expert FFN: y = sum_e w_e * down(SiLU(gate(t)) * up(t)).
		for j := range scratch.ffnOut {
			scratch.ffnOut[j] = 0
		}
		for j, e := range rows.chosen[i] {
			gate, up, down, aerr := experts.Acquire(e)
			if aerr != nil {
				panic(aerr) // seed benches run on resident experts only
			}
			seedMatMulT(tensor.FromSlice(1, cfg.Intermediate, scratch.gateAct), nm, gate)
			seedMatMulT(tensor.FromSlice(1, cfg.Intermediate, scratch.upAct), nm, up)
			tensor.SiLU(scratch.gateAct)
			for k := range scratch.gateAct {
				scratch.gateAct[k] *= scratch.upAct[k]
			}
			seedMatMulT(tensor.FromSlice(1, cfg.Hidden, scratch.proj),
				tensor.FromSlice(1, cfg.Intermediate, scratch.gateAct), down)
			experts.Release(e)
			tensor.Axpy(sel[j], scratch.proj, scratch.ffnOut)
		}
		tensor.Add(x.Row(i), x.Row(i), scratch.ffnOut)
	}
	return rows.chosen[:x.Rows]
}

// seedAttend runs the micro-batch's attention sequentially with
// per-call allocation, as the seed CPU lane did: a paged context is
// first gathered into freshly allocated staging matrices (the seed's
// per-token copy, token by token) and attention reads the copy.
func seedAttend(items []tensor.AttnItem, nq, nkv, headDim int) {
	for i := range items {
		it := &items[i]
		keys, values := it.Keys, it.Values
		if len(it.KeyBlocks) > 0 {
			ctx := tensor.BlocksRows(it.KeyBlocks)
			cols := it.KeyBlocks[0].Cols
			keys = tensor.NewMat(ctx, cols)
			values = tensor.NewMat(ctx, cols)
			row := 0
			for b, kb := range it.KeyBlocks {
				vb := it.ValueBlocks[b]
				for r := 0; r < kb.Rows; r++ {
					copy(keys.Row(row), kb.Row(r))
					copy(values.Row(row), vb.Row(r))
					row++
				}
			}
		}
		tensor.AttendOne(it.Out, it.Q, keys, values, nq, nkv, headDim, nil)
	}
}

// newSeedKernels adapts the seed path to the pipeline's kernel hooks.
func newSeedKernels(layout Layout) kernels {
	scratch := newSeedScratch(layout)
	return kernels{
		preAttn: func(layout Layout, shared []float32, x tensor.Mat, positions []int, qkv, _ []float32) {
			seedPreAttention(layout, shared, x, positions, qkv)
		},
		route: func(layout Layout, shared []float32, attnOut, x tensor.Mat, rows *ffnScratch, off int) {
			seedPostRoute(layout, shared, attnOut, x, scratch, rows, off)
		},
		ffn: func(layout Layout, experts expertSource, x tensor.Mat, rows *ffnScratch) [][]int {
			return seedExpertFFN(layout, experts, x, scratch, rows)
		},
		attend: seedAttend,
	}
}

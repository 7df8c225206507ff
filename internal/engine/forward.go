package engine

import (
	"fmt"

	"moelightning/internal/tensor"
)

// Shared forward-pass kernels. Both the sequential reference and the
// pipelined engine call exactly these functions, so their outputs are
// bit-identical when the schedule is correct. Batching never changes
// the math: every per-token value is produced by the same sequence of
// float operations regardless of how many tokens share the call, so a
// batch-n result matches n single-token calls bit for bit.

// The model's two fixed constants: the RoPE base and the epsilon of
// every RMSNorm (layer norms and the final one).
const (
	ropeTheta = 10000
	normEps   = 1e-5
)

// qkvViews splits a micro-batch QKV buffer into its three matrices.
// The buffer holds the whole Q block [n, qdim], then the K block
// [n, kvdim], then the V block [n, kvdim], so each projection is one
// contiguous GEMM output.
func qkvViews(data []float32, n, q, kv int) (Q, K, V tensor.Mat) {
	Q = tensor.FromSlice(n, q, data[:n*q])
	K = tensor.FromSlice(n, kv, data[n*q:n*(q+kv)])
	V = tensor.FromSlice(n, kv, data[n*(q+kv):n*(q+2*kv)])
	return Q, K, V
}

// preAttention computes the pre-attention stage for a group of tokens:
// RMSNorm, one batched Q/K/V projection over the whole group, and
// rotary embedding. x is [n, hidden], positions[i] is token i's
// absolute position, qkv is the n*(qdim+2*kvdim) output buffer in
// qkvViews layout. normedBuf is n*hidden floats of workspace the caller
// owns: the reference and prefill lend their ffnScratch's norm rows,
// which nothing else holds between their pre- and post-attention; a
// decode step cannot, because pre(l, j+ahead) runs between postRoute's
// write of those rows and expertFFN's read.
func preAttention(layout Layout, layer []float32, x tensor.Mat, positions []int, qkv, normedBuf []float32) {
	cfg := layout.cfg
	n := x.Rows
	normed := tensor.FromSlice(n, cfg.Hidden, normedBuf[:n*cfg.Hidden])
	norm := layout.AttnNorm(layer)
	for i := 0; i < n; i++ {
		tensor.RMSNorm(normed.Row(i), x.Row(i), norm, normEps)
	}
	Q, K, V := qkvViews(qkv, n, cfg.QDim(), cfg.KVDim())
	tensor.MatMulTParallel(Q, normed, layout.Wq(layer))
	tensor.MatMulTParallel(K, normed, layout.Wk(layer))
	tensor.MatMulTParallel(V, normed, layout.Wv(layer))
	for i := 0; i < n; i++ {
		tensor.RoPE(Q.Row(i), cfg.HeadDim, positions[i], ropeTheta)
		tensor.RoPE(K.Row(i), cfg.HeadDim, positions[i], ropeTheta)
	}
}

// expertSource resolves expert FFN weights for expertFFN. Acquire
// pins expert e's projections in whatever memory serves the kernels —
// the GPU residency pool for the pipeline, where a cold expert
// demand-fetches synchronously so routing is never wrong, just slower;
// the CPU layer region for the reference — and Release unpins them
// once the expert's GEMM triple is done. An Acquire error (a paged
// expert whose fetch failed past its retry budget) makes expertFFN
// skip the expert and record the failure in scratch; the caller maps
// it onto the sequences routed to that expert. A failed Acquire is
// never Released.
type expertSource interface {
	Acquire(e int) (gate, up, down tensor.Mat, err error)
	Release(e int)
}

// residentExperts serves experts straight from a fully resident layer
// region: the reference engine and the kernel unit tests. Acquire
// never fails — the weights are already local.
type residentExperts struct {
	layout Layout
	data   []float32
}

func (s residentExperts) Acquire(e int) (gate, up, down tensor.Mat, err error) {
	gate, up, down = s.layout.Expert(s.data, e)
	return gate, up, down, nil
}

func (s residentExperts) Release(int) {}

// postAttention applies the O projection, residual, FFN norm, router
// and top-k expert FFN for a group of tokens. attnOut is [n, qdim]; x
// is [n, hidden] and is updated in place (both residual adds). shared
// is the layer's shared weight region (SharedFloats long — or longer;
// a full layer region works too since the shared tensors are its
// prefix); expert blocks come from the expertSource one at a time.
//
// It is postRoute followed by expertFFN over the same rows, and that is
// the only definition: the reference calls it per token and prefill per
// packed chunk (through the kernel hooks), while a decode step calls
// the halves from two tasks — postRoute once per micro-batch, each at
// its own row offset, then one expertFFN over all of them.
//
// It returns the expert indices chosen per token (in routing order) for
// routing statistics; the slices are backed by scratch and only valid
// until the next call.
func postAttention(layout Layout, shared []float32, experts expertSource, attnOut, x tensor.Mat, scratch *ffnScratch) [][]int {
	postRoute(layout, shared, attnOut, x, scratch, 0)
	return expertFFN(layout, experts, x, scratch)
}

// postRoute is the per-group half of post-attention: O projection and
// residual into x (in place), FFN norm, router logits, top-k and gate
// weights for x's n rows. What expertFFN needs of it is left in
// scratch rows [off, off+n) — normed, chosen, sel — so several groups
// can route one after another into disjoint rows of one scratch and
// meet in a single expertFFN. It owns exactly those rows (and the same
// rows of proj and logits, which nothing reads afterwards): rows of
// other groups are untouched.
func postRoute(layout Layout, shared []float32, attnOut, x tensor.Mat, scratch *ffnScratch, off int) {
	cfg := layout.cfg
	n := x.Rows
	if off+n > scratch.maxN {
		panic(fmt.Sprintf("engine: rows %d..%d exceed scratch capacity %d", off, off+n, scratch.maxN))
	}
	h := cfg.Hidden

	// O projection + residual, one GEMM for the whole group.
	proj := tensor.FromSlice(n, h, scratch.proj[off*h:(off+n)*h])
	tensor.MatMulTParallel(proj, attnOut, layout.Wo(shared))
	for i := 0; i < n; i++ {
		tensor.Add(x.Row(i), x.Row(i), proj.Row(i))
	}

	// FFN norm + batched router logits.
	normed := tensor.FromSlice(n, h, scratch.normed[off*h:(off+n)*h])
	norm := layout.FFNNorm(shared)
	for i := 0; i < n; i++ {
		tensor.RMSNorm(normed.Row(i), x.Row(i), norm, normEps)
	}
	logits := tensor.FromSlice(n, cfg.Experts, scratch.logits[off*cfg.Experts:(off+n)*cfg.Experts])
	tensor.MatMulTParallel(logits, normed, layout.Router(shared))

	// Route every token. The gate weight softmax runs over the top-k
	// logits in routing order, exactly as the per-token path did
	// (Mixtral renorm).
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		topk := tensor.TopKInto(scratch.chosen[off+i], row, cfg.TopK)
		scratch.chosen[off+i] = topk
		sel := scratch.sel[(off+i)*cfg.TopK : (off+i)*cfg.TopK+len(topk)]
		for j, e := range topk {
			sel[j] = row[e]
		}
		tensor.Softmax(sel)
	}
}

// expertFFN is the expert half of post-attention over the n rows of x
// that postRoute calls have routed into scratch rows [0, n):
// y_t = sum_e w_te * down_e(SiLU(gate_e(t)) * up_e(t)), added into x in
// place. It owns every scratch row and the buckets for the call.
//
// Execution is expert-grouped: row indices are bucketed by chosen
// expert, and each expert with work is acquired ONCE and runs one
// [tokens_e, hidden] batched GEMM triple instead of tokens x topk
// separate GEMVs — a pass over an expert's matrices costs the same at
// one row as at eight, so the fewer groups the rows arrive in, the fewer
// passes. GEMM rows are independent, and per token the expert
// contributions accumulate into ffnOut in ascending expert-id order
// whatever other rows share the call, so the result is bit-identical
// for any batch shape: a token alone (the reference), inside its
// micro-batch, or among the rows of every micro-batch of a decode
// layer.
//
// An expert whose weights cannot be acquired is skipped wholesale and
// recorded in scratch.failedExperts: its tokens' outputs are wrong from
// here on (a contribution is missing), so the caller must retire every
// sequence routed to it — but tokens NOT routed to the failed expert
// accumulate exactly the contributions they always did, in the same
// order, so survivors stay bit-identical.
//
// It returns the expert indices chosen per row (in routing order).
func expertFFN(layout Layout, experts expertSource, x tensor.Mat, scratch *ffnScratch) [][]int {
	cfg := layout.cfg
	n := x.Rows
	if n > scratch.maxN {
		panic(fmt.Sprintf("engine: batch of %d exceeds scratch capacity %d", n, scratch.maxN))
	}
	h, h2 := cfg.Hidden, cfg.Intermediate

	for e := range scratch.bucketTok {
		scratch.bucketTok[e] = scratch.bucketTok[e][:0]
		scratch.bucketW[e] = scratch.bucketW[e][:0]
	}
	for i := 0; i < n; i++ {
		for j, e := range scratch.chosen[i] {
			scratch.bucketTok[e] = append(scratch.bucketTok[e], i)
			scratch.bucketW[e] = append(scratch.bucketW[e], scratch.sel[i*cfg.TopK+j])
		}
	}

	normed := tensor.FromSlice(n, h, scratch.normed[:n*h])
	scratch.failedExperts = scratch.failedExperts[:0]
	scratch.expertErr = nil
	ffnOut := tensor.FromSlice(n, h, scratch.ffnOut[:n*h])
	for i := range ffnOut.Data {
		ffnOut.Data[i] = 0
	}
	for e := 0; e < cfg.Experts; e++ {
		toks := scratch.bucketTok[e]
		ne := len(toks)
		if ne == 0 {
			continue
		}
		xe := tensor.FromSlice(ne, h, scratch.xe[:ne*h])
		for r, t := range toks {
			copy(xe.Row(r), normed.Row(t))
		}
		gate, up, down, aerr := experts.Acquire(e)
		if aerr != nil {
			scratch.failedExperts = append(scratch.failedExperts, e)
			if scratch.expertErr == nil {
				scratch.expertErr = aerr
			}
			continue
		}
		gateAct := tensor.FromSlice(ne, h2, scratch.gateAct[:ne*h2])
		upAct := tensor.FromSlice(ne, h2, scratch.upAct[:ne*h2])
		tensor.MatMulTParallel(gateAct, xe, gate)
		tensor.MatMulTParallel(upAct, xe, up)
		tensor.SiLUMul(gateAct.Data, gateAct.Data, upAct.Data)
		expProj := tensor.FromSlice(ne, h, scratch.expProj[:ne*h])
		tensor.MatMulTParallel(expProj, gateAct, down)
		experts.Release(e)
		weights := scratch.bucketW[e]
		for r, t := range toks {
			tensor.Axpy(weights[r], expProj.Row(r), ffnOut.Row(t))
		}
	}
	for i := 0; i < n; i++ {
		tensor.Add(x.Row(i), x.Row(i), ffnOut.Row(i))
	}
	return scratch.chosen[:n]
}

// ffnScratch is reusable workspace for postRoute / expertFFN sized for
// batches of up to maxN tokens, so the steady-state forward pass never
// allocates. normed, chosen and sel carry a row's routing from postRoute
// to expertFFN.
type ffnScratch struct {
	maxN int

	proj, normed, ffnOut []float32 // maxN x hidden
	logits               []float32 // maxN x experts
	sel                  []float32 // maxN x topk gate weights, routing order
	chosen               [][]int   // per-token top-k views into chosenFlat
	chosenFlat           []int
	bucketTok            [][]int     // per-expert token indices
	bucketW              [][]float32 // per-expert gate weights
	xe, expProj          []float32   // maxN x hidden expert staging
	gateAct, upAct       []float32   // maxN x intermediate

	// failedExperts / expertErr record experts expertFFN skipped
	// because Acquire failed (and the first such error), valid until
	// the next call: the caller retires the sequences routed to them.
	failedExperts []int
	expertErr     error
}

func newFFNScratch(layout Layout, maxN int) *ffnScratch {
	if maxN < 1 {
		maxN = 1
	}
	cfg := layout.cfg
	s := &ffnScratch{
		maxN:       maxN,
		proj:       make([]float32, maxN*cfg.Hidden),
		normed:     make([]float32, maxN*cfg.Hidden),
		ffnOut:     make([]float32, maxN*cfg.Hidden),
		logits:     make([]float32, maxN*cfg.Experts),
		sel:        make([]float32, maxN*cfg.TopK),
		chosen:     make([][]int, maxN),
		chosenFlat: make([]int, maxN*cfg.TopK),
		bucketTok:  make([][]int, cfg.Experts),
		bucketW:    make([][]float32, cfg.Experts),
		xe:         make([]float32, maxN*cfg.Hidden),
		expProj:    make([]float32, maxN*cfg.Hidden),
		gateAct:    make([]float32, maxN*cfg.Intermediate),
		upAct:      make([]float32, maxN*cfg.Intermediate),
	}
	for i := range s.chosen {
		s.chosen[i] = s.chosenFlat[i*cfg.TopK : i*cfg.TopK : (i+1)*cfg.TopK]
	}
	for e := range s.bucketTok {
		s.bucketTok[e] = make([]int, 0, maxN)
		s.bucketW[e] = make([]float32, 0, maxN)
	}
	return s
}

// logitsFor computes the LM-head logits for one hidden state using the
// tied embedding. normed is caller-owned scratch of len(hidden).
func logitsFor(w *Weights, hidden, logits, normed []float32) {
	tensor.RMSNorm(normed, hidden, w.FinalNorm, normEps)
	tensor.MatMulTParallel(tensor.FromSlice(1, w.Cfg.VocabSize, logits),
		tensor.FromSlice(1, len(hidden), normed), w.Embedding)
}

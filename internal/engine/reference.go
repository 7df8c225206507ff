package engine

import (
	"fmt"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/tensor"
	"moelightning/internal/workload"
)

// Reference is the sequential oracle: a straightforward prefill + decode
// loop with no offloading, no pipeline and no paging. The pipelined
// engine must reproduce its tokens exactly.
type Reference struct {
	w     *Weights
	cache *kvcache.Cache
	// hidden[s] is sequence s's current hidden state.
	hidden tensor.Mat
	// ExpertLoad counts expert selections per layer for routing stats.
	ExpertLoad [][]int64

	// Preallocated per-step workspaces (decode is token-at-a-time, so
	// one of each suffices). view is the reusable zero-copy window onto
	// the paged cache, with the attention scratch of the cache's codec.
	scratch    *ffnScratch
	qkv        []float32
	attnOut    tensor.Mat
	view       kvcache.View
	logits     []float32
	normedHead []float32
}

// NewReference builds a reference engine with its own float32 KV
// cache.
func NewReference(w *Weights, cacheArena *memory.Arena, numSeqs, maxContext int) (*Reference, error) {
	return NewReferenceKV(w, cacheArena, numSeqs, maxContext, kvcache.F32)
}

// NewReferenceKV is NewReference with an explicit KV cache codec. A
// quantized reference reads the cache through the same dequant-aware
// kernel as the pipeline, so pipeline-vs-reference comparisons stay
// bit-identical even with quantization on.
func NewReferenceKV(w *Weights, cacheArena *memory.Arena, numSeqs, maxContext int, dtype kvcache.DType) (*Reference, error) {
	cache, err := kvcache.New(cacheArena, w.Cfg.Layers, w.Cfg.KVDim(), kvcache.DefaultBlockTokens, numSeqs*maxContext, dtype)
	if err != nil {
		return nil, err
	}
	load := make([][]int64, w.Cfg.Layers)
	for i := range load {
		load[i] = make([]int64, w.Cfg.Experts)
	}
	q, kv := w.Cfg.QDim(), w.Cfg.KVDim()
	r := &Reference{
		w:          w,
		cache:      cache,
		hidden:     tensor.NewMat(numSeqs, w.Cfg.Hidden),
		ExpertLoad: load,
		scratch:    newFFNScratch(w.Layout, 1),
		qkv:        make([]float32, q+2*kv),
		attnOut:    tensor.NewMat(1, q),
		logits:     make([]float32, w.Cfg.VocabSize),
		normedHead: make([]float32, w.Cfg.Hidden),
	}
	return r, nil
}

// Generate runs prefill over the prompts and then greedy decode for
// genLen steps, returning the generated token IDs per sequence.
func (r *Reference) Generate(prompts [][]int, genLen int) ([][]int, error) {
	if len(prompts) > r.hidden.Rows {
		return nil, fmt.Errorf("engine: %d prompts exceed capacity %d", len(prompts), r.hidden.Rows)
	}
	out := make([][]int, len(prompts))

	// Prefill each sequence token by token (simple and obviously
	// correct; performance is not this engine's concern).
	for s, prompt := range prompts {
		if len(prompt) == 0 {
			return nil, fmt.Errorf("engine: empty prompt for sequence %d", s)
		}
		for _, tok := range prompt {
			if err := r.step(s, tok); err != nil {
				return nil, err
			}
		}
	}

	// Greedy decode.
	next := make([]int, len(prompts))
	for s := range prompts {
		logitsFor(r.w, r.hidden.Row(s), r.logits, r.normedHead)
		next[s] = tensor.ArgMax(r.logits)
	}
	for t := 0; t < genLen; t++ {
		for s := range prompts {
			out[s] = append(out[s], next[s])
		}
		if t == genLen-1 {
			break
		}
		for s := range prompts {
			if err := r.step(s, next[s]); err != nil {
				return nil, err
			}
			logitsFor(r.w, r.hidden.Row(s), r.logits, r.normedHead)
			next[s] = tensor.ArgMax(r.logits)
		}
	}
	return out, nil
}

// step feeds one token of one sequence through the whole model,
// updating the KV cache and hidden state.
func (r *Reference) step(s, token int) error {
	cfg := r.w.Cfg
	layout := r.w.Layout
	x := r.hidden.Row(s)
	copy(x, r.w.Embedding.Row(token))

	pos := r.cache.Len(s)
	q, kv := cfg.QDim(), cfg.KVDim()
	xm := tensor.FromSlice(1, cfg.Hidden, x)
	positions := [1]int{pos}

	for l := 0; l < cfg.Layers; l++ {
		layer := r.w.Layers[l].Data()
		preAttention(layout, layer, xm, positions[:], r.qkv, r.scratch.normed)
		Q, K, V := qkvViews(r.qkv, 1, q, kv)
		if err := r.cache.Append(s, l, K.Row(0), V.Row(0)); err != nil {
			return err
		}
		r.cache.View(s, l, &r.view)
		item := [1]tensor.AttnItem{r.view.AttnItem(r.attnOut.Row(0), Q.Row(0))}
		tensor.AttendMany(item[:], cfg.QHeads, cfg.KVHeads, cfg.HeadDim)
		chosen := postAttention(layout, layer, residentExperts{layout: layout, data: layer}, r.attnOut, xm, r.scratch)
		for _, e := range chosen[0] {
			r.ExpertLoad[l][e]++
		}
	}
	return nil
}

// PromptsFromRequests derives deterministic synthetic prompts from a
// workload request set (token IDs hash from the request ID), so the
// functional engines can run paper-shaped workloads. A request with a
// nonzero PrefixID opens with PrefixLen tokens hashed from the prefix
// ID instead — every request naming the same system prompt shares a
// bit-identical leading token run, which is what the prefix-sharing KV
// cache keys on.
func PromptsFromRequests(reqs []workload.Request, vocab int) [][]int {
	prompts := make([][]int, len(reqs))
	for i, r := range reqs {
		prompts[i] = syntheticPrompt(r, vocab)
	}
	return prompts
}

func syntheticPrompt(r workload.Request, vocab int) []int {
	p := make([]int, r.PromptLen)
	n := 0
	if r.PrefixID != 0 {
		n = r.PrefixLen
		if n > r.PromptLen {
			n = r.PromptLen
		}
		if n < 0 {
			n = 0
		}
		state := uint64(r.PrefixID)*2654435761 + 98765
		for j := 0; j < n; j++ {
			state = state*6364136223846793005 + 1442695040888963407
			p[j] = int(state>>33) % vocab
		}
	}
	state := uint64(r.ID)*2654435761 + 12345
	for j := n; j < r.PromptLen; j++ {
		state = state*6364136223846793005 + 1442695040888963407
		p[j] = int(state>>33) % vocab
	}
	return p
}

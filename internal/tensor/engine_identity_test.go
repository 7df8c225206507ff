package tensor_test

import (
	"reflect"
	"testing"

	"moelightning/internal/engine"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/tensor"
	"moelightning/internal/workload"
)

// TestEngineTokensSameOnBothTiles is what "tokens identical to the
// scalar engine" rests on: a packed-prefill + decode run through the
// pipelined engine yields the same tokens with the vector kernels (the
// AVX2 GEMM tile, attention's score and combine kernels, and exp32's
// lanes in Softmax and SiLUMul) off and on, and both equal the
// sequential reference. It lives here, as an external test of tensor,
// because only this package can flip the kernels. Two models: odd-moe,
// where no width is a multiple of eight, so every projection mixes
// vector blocks with a Go-tile column tail, SiLUMul over an odd number
// of 100-wide rows ends in a Go tail, and attention's scores and combine
// (head dim 10) run Go on both sides; and gqa-moe, with bench-moe-8x's
// heads (8 query heads over 2 KV heads of 16), where attention runs the
// vector kernels — under float32 and int8 KV, with prompts longer than a
// prompt pass.
func TestEngineTokensSameOnBothTiles(t *testing.T) {
	detected := tensor.SetVectorTile(false)
	defer tensor.SetVectorTile(detected)
	if !detected {
		t.Skip("no AVX2 kernels (host without AVX2, or a -race build): the Go kernels are the only ones here")
	}
	odd := model.Config{
		Name: "odd-moe", Layers: 3,
		Hidden: 60, Intermediate: 100,
		QHeads: 6, KVHeads: 3, HeadDim: 10,
		Experts: 6, TopK: 2,
		VocabSize:   250,
		WeightDType: model.F32, KVDType: model.F32,
	}
	gqa := model.Config{
		Name: "gqa-moe", Layers: 2,
		Hidden: 128, Intermediate: 96,
		QHeads: 8, KVHeads: 2, HeadDim: 16,
		Experts: 4, TopK: 2,
		VocabSize:   250,
		WeightDType: model.F32, KVDType: model.F32,
	}
	reqs := []workload.Request{{ID: 0, PromptLen: 37}, {ID: 1, PromptLen: 5}, {ID: 2, PromptLen: 64},
		{ID: 3, PromptLen: 18}, {ID: 4, PromptLen: 1}}
	const genLen, maxContext = 12, 96

	run := func(t *testing.T, m model.Config, dtype kvcache.DType, chunk int, vector bool) [][]int {
		tensor.SetVectorTile(vector)
		prompts := engine.PromptsFromRequests(reqs, m.VocabSize)
		host, err := engine.NewHost(m, 99, len(prompts), maxContext, 0)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := engine.NewPipeline(host.W, host.GPU, host.Pinned, host.Cache, len(prompts),
			engine.Config{MicroBatch: 2, MaxContext: maxContext, PrefillChunk: chunk, KVDtype: dtype})
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		tokens, err := pipe.Generate(prompts, genLen)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.NewReferenceKV(host.W, memory.NewArena("refcache", kvcache.ArenaFloats(m.Layers, m.KVDim(), len(prompts)*maxContext)), len(prompts), maxContext, dtype)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Generate(prompts, genLen)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tokens, want) {
			t.Fatalf("vector kernels %v: pipeline diverged from the reference\n got %v\nwant %v", vector, tokens, want)
		}
		return tokens
	}
	for _, c := range []struct {
		m     model.Config
		dtype kvcache.DType
		chunk int
	}{{odd, kvcache.F32, 48}, {gqa, kvcache.F32, 24}, {gqa, kvcache.Int8, 24}} {
		t.Run(c.m.Name+"/"+c.dtype.String(), func(t *testing.T) {
			scalar, vector := run(t, c.m, c.dtype, c.chunk, false), run(t, c.m, c.dtype, c.chunk, true)
			if !reflect.DeepEqual(scalar, vector) {
				t.Fatalf("tokens differ between kernel sets\n go   %v\n avx2 %v", scalar, vector)
			}
		})
	}
}

package tensor_test

import (
	"reflect"
	"testing"

	"moelightning/internal/engine"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/tensor"
	"moelightning/internal/workload"
)

// TestEngineTokensSameOnBothTiles is what "tokens identical to the
// scalar engine" rests on: a packed-prefill + decode run through the
// pipelined engine yields the same tokens with the AVX2 GEMM tile off
// and on, and both equal the sequential reference. It lives here, as an
// external test of tensor, because only this package can flip the tile.
// No width of the model is a multiple of eight, so every projection
// mixes vector blocks with a Go-tile column tail.
func TestEngineTokensSameOnBothTiles(t *testing.T) {
	detected := tensor.SetVectorTile(false)
	defer tensor.SetVectorTile(detected)
	if !detected {
		t.Skip("no AVX2 tile (host without AVX2, or a -race build): the Go tile is the only kernel here")
	}
	m := model.Config{
		Name: "odd-moe", Layers: 3,
		Hidden: 60, Intermediate: 100,
		QHeads: 6, KVHeads: 3, HeadDim: 10,
		Experts: 6, TopK: 2,
		VocabSize:   250,
		WeightDType: model.F32, KVDType: model.F32,
	}
	reqs := []workload.Request{{ID: 0, PromptLen: 37}, {ID: 1, PromptLen: 5}, {ID: 2, PromptLen: 64},
		{ID: 3, PromptLen: 18}, {ID: 4, PromptLen: 1}}
	prompts := engine.PromptsFromRequests(reqs, m.VocabSize)
	const genLen, maxContext = 12, 96

	run := func(vector bool) [][]int {
		tensor.SetVectorTile(vector)
		host, err := engine.NewHost(m, 99, len(prompts), maxContext, 0)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := engine.NewPipeline(host.W, host.GPU, host.Pinned, host.Cache, len(prompts),
			engine.Config{MicroBatch: 2, MaxContext: maxContext, Lookahead: 2, PrefillChunk: 48})
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		tokens, err := pipe.Generate(prompts, genLen)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.NewReference(host.W, memory.NewArena("refcache", host.Cache.Capacity()), len(prompts), maxContext)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Generate(prompts, genLen)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tokens, want) {
			t.Fatalf("vector tile %v: pipeline diverged from the reference\n got %v\nwant %v", vector, tokens, want)
		}
		return tokens
	}
	scalar, vector := run(false), run(true)
	if !reflect.DeepEqual(scalar, vector) {
		t.Fatalf("tokens differ between tiles\n go   %v\n avx2 %v", scalar, vector)
	}
}

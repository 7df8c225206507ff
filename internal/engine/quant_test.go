package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
)

// TestQuantizedPipelineMatchesQuantizedReference: with the Int8 codec
// on, the pipelined engine must stay bit-identical to the sequential
// reference reading the same kind of cache — prefill and decode both
// attend over the quantized blocks through the same dequant-aware
// kernel, so the fan-out/batching invariants carry over unchanged.
func TestQuantizedPipelineMatchesQuantizedReference(t *testing.T) {
	cfg := model.Tiny()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		seqs := 1 + rng.Intn(5)
		mu := 1 + rng.Intn(seqs)
		gen := 2 + rng.Intn(5)
		seed := rng.Int63()

		cpu, gpu, pinned, cacheArena := newTestArenas()
		w, err := NewRandomWeights(cpu, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		prompts := testPrompts(seqs, 2+rng.Intn(4), 6+rng.Intn(18), cfg.VocabSize)

		ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), seqs, 64, kvcache.Int8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Generate(prompts, gen)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs,
			Config{MicroBatch: mu, MaxContext: 64, KVDtype: kvcache.Int8})
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.Generate(prompts, gen)
		pl.Close()
		if err != nil {
			t.Fatalf("trial %d (seqs=%d mu=%d gen=%d): %v", trial, seqs, mu, gen, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (seqs=%d mu=%d gen=%d): quantized pipeline diverged from quantized reference\n got %v\nwant %v",
				trial, seqs, mu, gen, got, want)
		}
	}
}

// TestQuantizedTokensNearFloat32Reference states the codec's
// end-to-end tolerance: greedy decode over an int8 KV cache must agree
// with the float32 reference run on at least 80% of tokens (the runs
// are deterministic; drift comes only from the ~0.4%-per-group
// quantization error nudging near-tie argmaxes).
func TestQuantizedTokensNearFloat32Reference(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	const seqs, gen = 4, 8
	prompts := testPrompts(seqs, 5, 12, cfg.VocabSize)
	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), seqs, 64, kvcache.F32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, gen)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs,
		Config{MicroBatch: 2, MaxContext: 64, KVDtype: kvcache.Int8})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, err := pl.Generate(prompts, gen)
	if err != nil {
		t.Fatal(err)
	}
	match, total := 0, 0
	for s := range want {
		for i := range want[s] {
			total++
			if i < len(got[s]) && got[s][i] == want[s][i] {
				match++
			}
		}
	}
	agreement := float64(match) / float64(total)
	t.Logf("int8 vs f32 token agreement: %d/%d = %.2f", match, total, agreement)
	if agreement < 0.8 {
		t.Fatalf("quantized run agrees with float32 reference on only %.2f of tokens (tolerance 0.80)", agreement)
	}
}

// TestQuantizedCacheFitsTwiceTheSequences: the acceptance scenario at
// engine scale. Six sequences at MaxContext 8 ask for a pool of 48
// float32 tokens, 3 blocks a layer: an arena sized exactly for 3
// one-block sequences. Under float32, sequences starve; an Int8
// pipeline re-cuts the same arena into 9 blocks a layer and runs all 6
// to completion — with no per-sequence exhaustion and tokens
// bit-identical to the quantized reference.
func TestQuantizedCacheFitsTwiceTheSequences(t *testing.T) {
	cfg := model.Tiny()
	cpu := memory.NewArena("cpu", 1<<22)
	w, err := NewRandomWeights(cpu, cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	const maxContext, gen = 8, 5
	blockFloats := 16 * cfg.KVDim() * 2
	arenaFloats := 3 * cfg.Layers * blockFloats // exactly 3 f32 sequences
	if got := kvcache.ArenaFloats(cfg.Layers, cfg.KVDim(), 6*maxContext); got != arenaFloats {
		t.Fatalf("ArenaFloats = %d, want %d", got, arenaFloats)
	}
	prompts := testPrompts(6, 6, 11, cfg.VocabSize)

	gpu := memory.NewArena("gpu", 1<<22)
	pinned := memory.NewArena("pinned", 1<<22)
	f32, err := NewPipeline(w, gpu, pinned, memory.NewArena("cache", arenaFloats), 6,
		Config{MicroBatch: 3, MaxContext: maxContext})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f32.Generate(prompts, gen); err != nil {
		t.Fatal(err)
	}
	starved := 0
	for s := 0; s < 6; s++ {
		if errors.Is(f32.SeqErr(s), kvcache.ErrOutOfBlocks) {
			starved++
		}
	}
	f32.Close()
	if starved == 0 {
		t.Fatal("6 float32 sequences fit an arena sized for 3 — capacity test is vacuous")
	}

	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), 6, 64, kvcache.Int8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, gen)
	if err != nil {
		t.Fatal(err)
	}
	gpu = memory.NewArena("gpu", 1<<22)
	pinned = memory.NewArena("pinned", 1<<22)
	pl, err := NewPipeline(w, gpu, pinned, memory.NewArena("cache", arenaFloats), 6,
		Config{MicroBatch: 3, MaxContext: maxContext, KVDtype: kvcache.Int8})
	if err != nil {
		t.Fatalf("6 int8 sequences did not fit the 3-sequence arena: %v", err)
	}
	defer pl.Close()
	got, err := pl.Generate(prompts, gen)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		if serr := pl.SeqErr(s); serr != nil {
			t.Fatalf("sequence %d starved under int8: %v", s, serr)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("quantized 6-sequence run diverged from the quantized reference")
	}
}

// TestQuantizedMovementCountersAreBytes: with int8 KV, prefill's
// offload counter accounts the quantized payload — kvDim code bytes
// plus 4 bytes per group scale per half — not 4 bytes per float.
func TestQuantizedMovementCountersAreBytes(t *testing.T) {
	cfg := model.Tiny()
	for _, dtype := range []kvcache.DType{kvcache.F32, kvcache.Int8} {
		cpu, gpu, pinned, cacheArena := newTestArenas()
		w, err := NewRandomWeights(cpu, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, 2,
			Config{MicroBatch: 2, MaxContext: 32, KVDtype: dtype})
		if err != nil {
			t.Fatal(err)
		}
		prompts := testPrompts(2, 4, 4, cfg.VocabSize)
		if _, err := pl.Run(context.Background(), prompts, nil, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		perToken := kvcache.TokenBytes(cfg.KVDim(), dtype)
		want := int64(2 * 4 * cfg.Layers * perToken) // 2 seqs x 4 prompt tokens
		if got := pl.Counters.DtoHBytes.Load(); got != want {
			t.Errorf("dtype %v: prefill DtoH bytes = %d, want %d", dtype, got, want)
		}
		pl.Close()
	}
}

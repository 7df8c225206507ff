package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// TestCacheExhaustionSurfacesError: a KV cache sized below the
// generation's needs must never hang or silently corrupt state — even
// with five lanes in flight. Exhaustion is a per-sequence failure:
// Generate completes the wave, and every starved sequence reports
// ErrOutOfBlocks through SeqErr (whether it starved during prefill or
// mid-decode).
func TestCacheExhaustionSurfacesError(t *testing.T) {
	cfg := model.Tiny()
	cpu := memory.NewArena("cpu", 1<<22)
	gpu := memory.NewArena("gpu", 1<<22)
	pinned := memory.NewArena("pinned", 1<<22)
	// Room for roughly the prompts only: generation will exhaust it.
	cacheArena := memory.NewArena("cache", 4*cfg.Layers*2*cfg.KVDim()*16*2)
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 4, Config{MicroBatch: 2, MaxContext: 8})
	if err != nil {
		// Acceptable: construction itself may detect the shortfall.
		return
	}
	defer pl.Close()
	prompts := testPrompts(4, 7, 8, cfg.VocabSize)
	if _, err := pl.Generate(prompts, 30); err != nil {
		t.Fatalf("wave failed instead of retiring starved sequences: %v", err)
	}
	starved := 0
	for s := 0; s < 4; s++ {
		if serr := pl.SeqErr(s); serr != nil {
			if !errors.Is(serr, kvcache.ErrOutOfBlocks) {
				t.Fatalf("SeqErr(%d) = %v, want ErrOutOfBlocks", s, serr)
			}
			starved++
		}
	}
	if starved == 0 {
		t.Fatal("cache exhaustion went unnoticed: no sequence reports ErrOutOfBlocks")
	}
}

// TestPipelineSingleShot: a second Generate on the same pipeline is
// rejected (the KV cache already holds the first batch).
func TestPipelineSingleShot(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 2, Config{MicroBatch: 2, MaxContext: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	prompts := testPrompts(2, 3, 4, cfg.VocabSize)
	if _, err := pl.Generate(prompts, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Generate(prompts, 3); err == nil {
		t.Fatal("second Generate accepted")
	}
}

// TestClosedPipelineRejected: Generate after Close errors cleanly.
func TestClosedPipelineRejected(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 2, Config{MicroBatch: 2, MaxContext: 32})
	if err != nil {
		t.Fatal(err)
	}
	pl.Close()
	pl.Close() // idempotent
	if _, err := pl.Generate(testPrompts(2, 3, 4, cfg.VocabSize), 2); err == nil {
		t.Fatal("closed pipeline accepted work")
	}
}

// TestPipelineRandomShapesMatchReference fuzzes batch shapes: random
// sequence counts, micro-batch sizes, lookaheads, prompt lengths and
// generation lengths must all stay token-exact vs the reference.
func TestPipelineRandomShapesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing skipped in -short")
	}
	cfg := model.Tiny()
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 12; trial++ {
		seqs := 1 + rng.Intn(7)
		mu := 1 + rng.Intn(seqs)
		lookahead := 1 + rng.Intn(3)
		gen := 2 + rng.Intn(5)
		seed := rng.Int63()

		cpu, gpu, pinned, cacheArena := newTestArenas()
		w, err := NewRandomWeights(cpu, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		prompts := testPrompts(seqs, 2+rng.Intn(4), 6+rng.Intn(6), cfg.VocabSize)

		ref, err := NewReference(w, memory.NewArena("rc", 1<<22), seqs, 64)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Generate(prompts, gen)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs,
			Config{MicroBatch: mu, MaxContext: 64, Lookahead: lookahead})
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.Generate(prompts, gen)
		pl.Close()
		if err != nil {
			t.Fatalf("trial %d (seqs=%d mu=%d la=%d gen=%d): %v", trial, seqs, mu, lookahead, gen, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (seqs=%d mu=%d la=%d gen=%d): diverged", trial, seqs, mu, lookahead, gen)
		}
	}
}

// exhaustionFixture builds the shared scenario for the cache-full
// recovery tests: three sequences, a KV pool of exactly one block per
// (sequence, layer) — all claimed by prefill — so the long sequence is
// the only one to cross a block boundary mid-decode and finds the pool
// empty. It fails at decode step 1 after emitting 2 tokens; the two
// survivors never need another block within genLen steps.
func exhaustionFixture(t *testing.T) (w *Weights, gpu, pinned, cacheArena *memory.Arena,
	reqs []workload.Request, prompts [][]int, want [][]int) {
	t.Helper()
	cfg := model.Tiny()
	cpu := memory.NewArena("cpu", 1<<22)
	gpu = memory.NewArena("gpu", 1<<22)
	pinned = memory.NewArena("pinned", 1<<22)
	// ceil(3*MaxContext/16) = 3 blocks per layer, exactly.
	blockFloats := 16 * cfg.KVDim() * 2
	cacheArena = memory.NewArena("cache", 3*cfg.Layers*blockFloats)
	w, err := NewRandomWeights(cpu, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	reqs = []workload.Request{
		{ID: 0, PromptLen: 15}, {ID: 1, PromptLen: 10}, {ID: 2, PromptLen: 10},
	}
	prompts = PromptsFromRequests(reqs, cfg.VocabSize)
	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	want, err = ref.Generate(prompts, exhaustionGenLen)
	if err != nil {
		t.Fatal(err)
	}
	return w, gpu, pinned, cacheArena, reqs, prompts, want
}

const exhaustionGenLen = 5

// TestCacheExhaustionRetiresOnlyOffender: KV-pool exhaustion mid-decode
// must fail only the offending sequence — retired through the same
// step-boundary path a cancellation takes, its blocks returned to the
// pool — while the wave completes and the survivors' tokens stay
// bit-identical to the sequential reference.
func TestCacheExhaustionRetiresOnlyOffender(t *testing.T) {
	cfg := model.Tiny()
	w, gpu, pinned, cacheArena, _, prompts, want := exhaustionFixture(t)
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 3, Config{MicroBatch: 3, MaxContext: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, err := pl.Generate(prompts, exhaustionGenLen)
	if err != nil {
		t.Fatalf("wave failed instead of retiring the offender: %v", err)
	}
	if serr := pl.SeqErr(0); !errors.Is(serr, kvcache.ErrOutOfBlocks) {
		t.Fatalf("SeqErr(0) = %v, want ErrOutOfBlocks", serr)
	}
	for s := 1; s < 3; s++ {
		if serr := pl.SeqErr(s); serr != nil {
			t.Fatalf("survivor %d has error %v", s, serr)
		}
	}
	// The offender keeps the tokens emitted before the failed step, and
	// they match the reference prefix (everything up to the failure is
	// the same computation).
	if len(got[0]) != 2 || !reflect.DeepEqual(got[0], want[0][:2]) {
		t.Fatalf("offender tokens = %v, want prefix %v", got[0], want[0][:2])
	}
	// Survivors are bit-identical to the reference for the full run.
	for s := 1; s < 3; s++ {
		if !reflect.DeepEqual(got[s], want[s]) {
			t.Fatalf("survivor %d diverged: %v vs %v", s, got[s], want[s])
		}
	}
	// The retirement returned the offender's blocks to the pool.
	if pl.cache.FreeBlocks() != cfg.Layers {
		t.Fatalf("free blocks = %d, want %d (offender's, one per layer)",
			pl.cache.FreeBlocks(), cfg.Layers)
	}
}

// TestServerFailsOnlyExhaustedRequest runs the same scenario through
// the streaming server: the exhausted request's handle fails with the
// out-of-blocks error, the survivors complete with reference-identical
// tokens, and the wave itself (and Close) reports no error.
func TestServerFailsOnlyExhaustedRequest(t *testing.T) {
	w, gpu, pinned, cacheArena, reqs, _, want := exhaustionFixture(t)
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 3, MaxContext: 16},
		NumMicroBatches: 1, GenLen: exhaustionGenLen, CacheTokens: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := srv.SubmitBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cerr := srv.Close(); cerr != nil {
		t.Fatalf("Close reported a wave error for a request-scoped failure: %v", cerr)
	}
	toks, herr := hs[0].Wait()
	if !errors.Is(herr, kvcache.ErrOutOfBlocks) {
		t.Fatalf("offender error = %v, want ErrOutOfBlocks", herr)
	}
	if !reflect.DeepEqual(toks, want[0][:len(toks)]) {
		t.Fatalf("offender partial tokens %v diverge from reference prefix", toks)
	}
	for i := 1; i < 3; i++ {
		toks, herr := hs[i].Wait()
		if herr != nil {
			t.Fatalf("survivor %d failed: %v", i, herr)
		}
		if !reflect.DeepEqual(toks, want[i]) {
			t.Fatalf("survivor %d diverged: %v vs %v", i, toks, want[i])
		}
	}
	st := srv.Stats()
	if st.Completed != 2 || st.Failed != 1 {
		t.Fatalf("stats completed=%d failed=%d, want 2/1", st.Completed, st.Failed)
	}
}

// prefillExhaustionFixture builds the prompt-phase analogue of
// exhaustionFixture: three sequences whose prompts claim 4 blocks per
// layer (the long one spans two), over a pool of exactly 3 blocks per
// layer. Layers 0-2 drain the pool, so the long sequence's first
// Append of layer 3 — still inside prefill — finds it empty. Its
// retirement releases 6 blocks, letting the two survivors finish
// prefill and the whole decode phase untouched.
func prefillExhaustionFixture(t *testing.T) (w *Weights, gpu, pinned, cacheArena *memory.Arena,
	reqs []workload.Request, prompts [][]int, want [][]int) {
	t.Helper()
	cfg := model.Tiny()
	cpu := memory.NewArena("cpu", 1<<22)
	gpu = memory.NewArena("gpu", 1<<22)
	pinned = memory.NewArena("pinned", 1<<22)
	blockFloats := 16 * cfg.KVDim() * 2
	cacheArena = memory.NewArena("cache", 3*cfg.Layers*blockFloats)
	w, err := NewRandomWeights(cpu, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	reqs = []workload.Request{
		{ID: 0, PromptLen: 17}, {ID: 1, PromptLen: 10}, {ID: 2, PromptLen: 10},
	}
	prompts = PromptsFromRequests(reqs, cfg.VocabSize)
	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	want, err = ref.Generate(prompts, exhaustionGenLen)
	if err != nil {
		t.Fatal(err)
	}
	return w, gpu, pinned, cacheArena, reqs, prompts, want
}

// TestPrefillExhaustionRetiresOnlyOffender: KV-pool exhaustion during
// prefill must not abort the wave. The offending sequence is retired
// through the SeqErr/failed-handle path (emitting no tokens, its
// blocks released to the pool) while the survivors complete prefill
// and decode bit-identical to the sequential reference.
func TestPrefillExhaustionRetiresOnlyOffender(t *testing.T) {
	w, gpu, pinned, cacheArena, _, prompts, want := prefillExhaustionFixture(t)
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 3, Config{MicroBatch: 3, MaxContext: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, err := pl.Generate(prompts, exhaustionGenLen)
	if err != nil {
		t.Fatalf("prefill exhaustion failed the whole wave: %v", err)
	}
	if serr := pl.SeqErr(0); !errors.Is(serr, kvcache.ErrOutOfBlocks) {
		t.Fatalf("SeqErr(0) = %v, want ErrOutOfBlocks", serr)
	}
	if len(got[0]) != 0 {
		t.Fatalf("offender emitted %v despite failing in prefill", got[0])
	}
	for s := 1; s < 3; s++ {
		if serr := pl.SeqErr(s); serr != nil {
			t.Fatalf("survivor %d has error %v", s, serr)
		}
		if !reflect.DeepEqual(got[s], want[s]) {
			t.Fatalf("survivor %d diverged: %v vs %v", s, got[s], want[s])
		}
	}
	// 12-block pool, survivors hold 1 block x 4 layers each; the
	// offender's blocks all went back.
	if free := pl.cache.FreeBlocks(); free != 4 {
		t.Fatalf("free blocks = %d, want 4 (offender's returned, survivors hold 8)", free)
	}
}

// TestServerFailsOnlyPrefillExhaustedRequest runs the prefill-phase
// scenario through the streaming server: the starved request's handle
// fails with ErrOutOfBlocks and zero tokens, the survivors complete
// with reference-identical tokens, and the wave itself (and Close)
// reports no error.
func TestServerFailsOnlyPrefillExhaustedRequest(t *testing.T) {
	w, gpu, pinned, cacheArena, reqs, _, want := prefillExhaustionFixture(t)
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 3, MaxContext: 16},
		NumMicroBatches: 1, GenLen: exhaustionGenLen, CacheTokens: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := srv.SubmitBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cerr := srv.Close(); cerr != nil {
		t.Fatalf("Close reported a wave error for a request-scoped prefill failure: %v", cerr)
	}
	toks, herr := hs[0].Wait()
	if !errors.Is(herr, kvcache.ErrOutOfBlocks) {
		t.Fatalf("offender error = %v, want ErrOutOfBlocks", herr)
	}
	if len(toks) != 0 {
		t.Fatalf("offender streamed %v despite failing in prefill", toks)
	}
	for i := 1; i < 3; i++ {
		toks, herr := hs[i].Wait()
		if herr != nil {
			t.Fatalf("survivor %d failed: %v", i, herr)
		}
		if !reflect.DeepEqual(toks, want[i]) {
			t.Fatalf("survivor %d diverged: %v vs %v", i, toks, want[i])
		}
	}
	st := srv.Stats()
	if st.Completed != 2 || st.Failed != 1 {
		t.Fatalf("stats completed=%d failed=%d, want 2/1", st.Completed, st.Failed)
	}
}

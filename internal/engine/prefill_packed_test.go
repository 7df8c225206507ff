package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// mixedPrompts is the packed-prefill stress shape: lengths from a
// single token to several KV blocks (blockTokens is 16), so chunks
// split long prompts and pack many short ones together.
func mixedPrompts(vocab int) [][]int {
	reqs := []workload.Request{
		{ID: 0, PromptLen: 1},
		{ID: 1, PromptLen: 3},
		{ID: 2, PromptLen: 9},
		{ID: 3, PromptLen: 17},
		{ID: 4, PromptLen: 33},
	}
	return PromptsFromRequests(reqs, vocab)
}

// TestPackedPrefillBitIdenticalMixedLengths: the wave-packed prefill
// must reproduce the sequential reference exactly — tokens AND routing
// decisions — across mixed prompt lengths (1 token to multi-block)
// under both KV codecs, for chunk sizes from one packed batch down to
// budgets far smaller than the longest prompt.
//
// The second case maps a shared prefix across micro-batches: four
// prompts open with the same 32 tokens, and the partition puts sequence
// 0, the first request to carry them, in a later micro-batch than
// sequences 1 and 2, which issue first and so donate; chunks of 1, 5
// and 16 rows split the donor's 38-token prompt across passes. A mapped
// token is never routed, so the expected load is the reference's less
// the prefix's routing, once per follower.
func TestPackedPrefillBitIdenticalMixedLengths(t *testing.T) {
	cfg := model.Tiny()
	for _, tc := range []struct {
		prompts   [][]int
		partition [][]int
		followers int // sequences that map the 32-token prefix
	}{
		{prompts: mixedPrompts(cfg.VocabSize)},
		{
			prompts:   PromptsFromRequests(prefixRequests(4, 7, 32, []int{8, 6, 4, 9}), cfg.VocabSize),
			partition: [][]int{{1, 2}, {0, 3}}, followers: 3,
		},
	} {
		for _, dtype := range []kvcache.DType{kvcache.F32, kvcache.Int8} {
			for _, chunk := range []int{0, 1, 5, 16, 63} {
				cpu := memory.NewArena("cpu", 1<<22)
				w, err := NewRandomWeights(cpu, cfg, 27)
				if err != nil {
					t.Fatal(err)
				}
				prompts := tc.prompts

				ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), len(prompts), 64, dtype)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Generate(prompts, 4)
				if err != nil {
					t.Fatal(err)
				}
				load := ref.ExpertLoad
				if tc.followers > 0 {
					pre, err := NewReferenceKV(w, memory.NewArena("rp", 1<<22), 1, 64, dtype)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := pre.Generate([][]int{prompts[0][:32]}, 1); err != nil {
						t.Fatal(err)
					}
					for l := range load {
						for e := range load[l] {
							load[l][e] -= int64(tc.followers) * pre.ExpertLoad[l][e]
						}
					}
				}

				gpu := memory.NewArena("gpu", 1<<22)
				pinned := memory.NewArena("pinned", 1<<22)
				cacheArena := memory.NewArena("cache", 1<<22)
				pl, err := NewPipeline(w, gpu, pinned, cacheArena, len(prompts),
					Config{MicroBatch: 2, MaxContext: 64, KVDtype: dtype,
						PrefillChunk: chunk})
				if err != nil {
					t.Fatal(err)
				}
				got, err := pl.Run(context.Background(), prompts, tc.partition, 4, nil, nil)
				if err != nil {
					pl.Close()
					t.Fatalf("dtype %v chunk %d: %v", dtype, chunk, err)
				}
				if !reflect.DeepEqual(got, want) {
					pl.Close()
					t.Fatalf("dtype %v chunk %d: packed prefill diverged from reference\n got %v\nwant %v",
						dtype, chunk, got, want)
				}
				if hits := pl.Counters.PrefixHitTokens.Load(); hits != int64(32*tc.followers) {
					pl.Close()
					t.Fatalf("dtype %v chunk %d: %d prefix hits, want %d", dtype, chunk, hits, 32*tc.followers)
				}
				if !reflect.DeepEqual(pl.ExpertLoad, load) {
					pl.Close()
					t.Fatalf("dtype %v chunk %d: expert load diverged", dtype, chunk)
				}
				pl.Close()
			}
		}
	}
}

// TestPackedPrefillCountsPackedKernels: the GPUKernels counter must
// report the graph's GPU tasks — per prompt pass, Layers x (nb pre +
// nb post + 1 ffn) — not a per-sequence count. Five prompts in
// micro-batches of 2 are nb = 3, so a pass is 4 x (3 + 3 + 1) = 28
// kernels, and the 63 prompt tokens take ceil(63 / chunk) passes.
func TestPackedPrefillCountsPackedKernels(t *testing.T) {
	cfg := model.Tiny()
	const nb = 3
	for _, tc := range []struct {
		chunk, wantPasses int
	}{
		{0, 1},  // default budget packs the whole 63-token wave
		{63, 1}, // exact fit
		{16, 4}, // ceil(63/16)
		{5, 13}, // ceil(63/5)
	} {
		cpu, gpu, pinned, cacheArena := newTestArenas()
		w, err := NewRandomWeights(cpu, cfg, 27)
		if err != nil {
			t.Fatal(err)
		}
		prompts := mixedPrompts(cfg.VocabSize) // 1+3+9+17+33 = 63 tokens
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, len(prompts),
			Config{MicroBatch: 2, MaxContext: 64, PrefillChunk: tc.chunk})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Run(context.Background(), prompts, nil, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
		want := int64(cfg.Layers * (2*nb + 1) * tc.wantPasses)
		if got := pl.Counters.GPUKernels.Load(); got != want {
			t.Errorf("chunk %d: GPUKernels = %d, want %d (%d per pass)",
				tc.chunk, got, want, cfg.Layers*(2*nb+1))
		}
		if pl.PrefillTokens != 63 {
			t.Errorf("chunk %d: PrefillTokens = %d, want 63", tc.chunk, pl.PrefillTokens)
		}
		pl.Close()
	}
}

// TestPackedPrefillExhaustionMidChunk: KV-pool exhaustion inside a
// prompt pass must retire only the starved sequence — its rows riding
// along unwritten until the pass boundary, its blocks released — while
// the survivors stay bit-identical to the reference, even when the
// chunk budget splits a prompt across several passes.
//
// Who starves is decided by block-allocation order. The pool holds 12
// blocks; the prompts of 17, 10 and 10 tokens need 2 + 1 + 1 a layer.
// In one pass the layers run in order, so layers 0-2 take all 12 and
// sequence 0's first append at layer 3 finds the pool empty. With 8-row
// passes the prompts run chunk-outer: rows 0-15 (sequence 0's first
// block, 4 blocks over the layers), rows 16-23 (sequence 0's second
// block and sequence 1's, 8 more) and then rows 24-31, where sequence
// 2's first append at layer 0 finds the pool empty.
func TestPackedPrefillExhaustionMidChunk(t *testing.T) {
	for _, tc := range []struct{ chunk, offender int }{{0, 0}, {8, 2}} {
		chunk := tc.chunk
		w, gpu, pinned, cacheArena, _, prompts, want := prefillExhaustionFixture(t)
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, 3,
			Config{MicroBatch: 3, MaxContext: 16, PrefillChunk: chunk})
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.Generate(prompts, exhaustionGenLen)
		if err != nil {
			pl.Close()
			t.Fatalf("chunk %d: prefill exhaustion failed the whole wave: %v", chunk, err)
		}
		if serr := pl.SeqErr(tc.offender); !errors.Is(serr, kvcache.ErrOutOfBlocks) {
			pl.Close()
			t.Fatalf("chunk %d: SeqErr(%d) = %v, want ErrOutOfBlocks", chunk, tc.offender, serr)
		}
		if len(got[tc.offender]) != 0 {
			pl.Close()
			t.Fatalf("chunk %d: offender emitted %v despite failing in prefill", chunk, got[tc.offender])
		}
		survivorTokens := 0
		for s := 0; s < 3; s++ {
			if s == tc.offender {
				continue
			}
			if serr := pl.SeqErr(s); serr != nil {
				pl.Close()
				t.Fatalf("chunk %d: survivor %d has error %v", chunk, s, serr)
			}
			if !reflect.DeepEqual(got[s], want[s]) {
				pl.Close()
				t.Fatalf("chunk %d: survivor %d diverged: %v vs %v", chunk, s, got[s], want[s])
			}
			survivorTokens += len(prompts[s])
		}
		// Survivors never starved: only their prompt tokens count as
		// prefilled.
		if pl.PrefillTokens != survivorTokens {
			pl.Close()
			t.Fatalf("chunk %d: PrefillTokens = %d, want %d (survivors only)",
				chunk, pl.PrefillTokens, survivorTokens)
		}
		pl.Close()
	}
}

// TestServeReportsPrefillThroughput: the serving stats must carry the
// wave's prompt-token count and a nonzero prefill rate.
func TestServeReportsPrefillThroughput(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []workload.Request{
		{ID: 0, PromptLen: 4}, {ID: 1, PromptLen: 7}, {ID: 2, PromptLen: 5},
	}
	res, err := Serve(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, reqs, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 100},
		NumMicroBatches: 2, GenLen: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefillTokens != 16 {
		t.Errorf("PrefillTokens = %d, want 16", res.PrefillTokens)
	}
	if res.PrefillTokensPerSecond <= 0 {
		t.Errorf("PrefillTokensPerSecond = %g, want > 0", res.PrefillTokensPerSecond)
	}
}

// TestInt8WavesBatchMoreSequences: the byte-aware batcher's end-to-end
// effect. Four long-prompt requests overflow a float32 wave's KV
// budget (two waves, two deferrals) but fit one int8 wave outright —
// the same MicroBatch x MaxContext budget spent in quantized blocks
// admits ~32/9 the context.
func TestInt8WavesBatchMoreSequences(t *testing.T) {
	cfg := model.Tiny()
	reqs := []workload.Request{
		{ID: 0, PromptLen: 40}, {ID: 1, PromptLen: 40},
		{ID: 2, PromptLen: 40}, {ID: 3, PromptLen: 40},
	}
	run := func(dtype kvcache.DType) ServeResult {
		cpu, gpu, pinned, cacheArena := newTestArenas()
		w, err := NewRandomWeights(cpu, cfg, 13)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Serve(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, reqs, ServeConfig{
			Config:          Config{MicroBatch: 4, MaxContext: 25, KVDtype: dtype},
			NumMicroBatches: 1, GenLen: 5,
		})
		if err != nil {
			t.Fatalf("dtype %v: %v", dtype, err)
		}
		if len(res.Outputs) != len(reqs) {
			t.Fatalf("dtype %v: served %d of %d", dtype, len(res.Outputs), len(reqs))
		}
		for id, toks := range res.Outputs {
			if len(toks) != 5 {
				t.Fatalf("dtype %v: request %d generated %d tokens", dtype, id, len(toks))
			}
		}
		return res
	}
	f32 := run(kvcache.F32)
	int8 := run(kvcache.Int8)
	// f32: 45 tokens is 3 blocks, 48 tokens; 48 fits the 4 x 25 = 100
	// token budget, 96 fits, 144 > 100 defers -> 2 waves.
	if f32.Waves != 2 || f32.Deferred != 2 {
		t.Errorf("f32 waves/deferred = %d/%d, want 2/2", f32.Waves, f32.Deferred)
	}
	// int8: the same 100-token budget in bytes covers 20 quantized
	// blocks, so all four requests (12 blocks) batch into one wave.
	if int8.Waves != 1 || int8.Deferred != 0 {
		t.Errorf("int8 waves/deferred = %d/%d, want 1/0 (byte-aware batching)", int8.Waves, int8.Deferred)
	}
}

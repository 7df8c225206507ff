package engine

import (
	"fmt"
	"reflect"
	"testing"

	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// newTestArenas sizes arenas generously for the tiny config.
func newTestArenas() (cpu, gpu, pinned, cacheArena *memory.Arena) {
	cpu = memory.NewArena("cpu", 1<<22)
	gpu = memory.NewArena("gpu", 1<<22)
	pinned = memory.NewArena("pinned", 1<<22)
	cacheArena = memory.NewArena("cache", 1<<22)
	return
}

func testPrompts(n, minLen, maxLen, vocab int) [][]int {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, PromptLen: minLen + i%(maxLen-minLen+1)}
	}
	return PromptsFromRequests(reqs, vocab)
}

// TestPipelineMatchesReference is the core functional result: CGOPipe
// with paged weights, offloaded KV cache and five concurrent lanes
// produces exactly the tokens of the sequential reference.
func TestPipelineMatchesReference(t *testing.T) {
	cfg := model.Tiny()
	for _, tc := range []struct {
		name          string
		seqs, mu, gen int
		lookahead     int
		layers        int // 0: Tiny's four
	}{
		{"single-seq", 1, 1, 6, 2, 0},
		{"one-microbatch", 3, 3, 5, 2, 0},
		{"two-microbatches", 4, 2, 6, 2, 0},
		{"many-microbatches", 8, 2, 5, 2, 0},
		{"uneven-tail", 5, 2, 4, 2, 0},
		{"lookahead-1", 6, 2, 4, 1, 0},
		{"lookahead-3", 6, 2, 4, 3, 0},
		// Buffer-slot parity flips between steps, and the look-ahead is
		// clamped to the two micro-batches.
		{"odd-layers-lookahead-past-microbatches", 4, 2, 6, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg
			if tc.layers > 0 {
				cfg.Layers = tc.layers
			}
			cpu, gpu, pinned, cacheArena := newTestArenas()
			w, err := NewRandomWeights(cpu, cfg, 42)
			if err != nil {
				t.Fatalf("weights: %v", err)
			}
			prompts := testPrompts(tc.seqs, 3, 9, cfg.VocabSize)

			refArena := memory.NewArena("refcache", 1<<22)
			ref, err := NewReference(w, refArena, tc.seqs, 64)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			want, err := ref.Generate(prompts, tc.gen)
			if err != nil {
				t.Fatalf("reference generate: %v", err)
			}

			pl, err := NewPipeline(w, gpu, pinned, cacheArena, tc.seqs,
				Config{MicroBatch: tc.mu, MaxContext: 64, Lookahead: tc.lookahead})
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			defer pl.Close()
			got, err := pl.Generate(prompts, tc.gen)
			if err != nil {
				t.Fatalf("pipeline generate: %v", err)
			}

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pipeline tokens diverge from reference:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestPipelineExpertLoadMatchesReference checks that routing decisions
// (not just final tokens) are identical.
func TestPipelineExpertLoadMatchesReference(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	prompts := testPrompts(4, 4, 7, cfg.VocabSize)

	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Generate(prompts, 5); err != nil {
		t.Fatal(err)
	}

	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 4, Config{MicroBatch: 2, MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if _, err := pl.Generate(prompts, 5); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(ref.ExpertLoad, pl.ExpertLoad) {
		t.Fatalf("expert load diverges:\n ref %v\n pipe %v", ref.ExpertLoad, pl.ExpertLoad)
	}
}

// TestPipelineWeightTraffic checks the paging accounting: each decode
// step must move exactly Layers x SharedFloats of shared weights HtoD,
// in Layers x MicroBatches pages, while expert-weight traffic rides the
// pager and must satisfy its own byte invariant (every fetch — demand
// miss or prefetch — moves exactly one expert block).
func TestPipelineWeightTraffic(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	const seqs, mu, gen = 4, 2, 4
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, Config{MicroBatch: mu, MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	prompts := testPrompts(seqs, 3, 5, cfg.VocabSize)
	if _, err := pl.Generate(prompts, gen); err != nil {
		t.Fatal(err)
	}

	nb := (seqs + mu - 1) / mu
	sharedFloats := int64(pl.layout.SharedFloats())
	// Prefill loads each layer's shared region once; setup preloads
	// layer 0; each of the gen-1 decode steps streams every layer once.
	wantPages := int64(cfg.Layers*nb) + int64(nb) + int64((gen-1)*cfg.Layers*nb)
	if got := pl.Counters.PagesMoved.Load(); got != wantPages {
		t.Errorf("pages moved = %d, want %d", got, wantPages)
	}
	wantWeightFloats := (int64(cfg.Layers) + 1 + int64((gen-1)*cfg.Layers)) * sharedFloats
	// HtoD also carries the per-micro-batch attention outputs. The
	// counters report bytes (4 per float32 element moved).
	hidden := int64(0)
	for _, r := range pl.attnGPU {
		hidden += int64(r.Len())
	}
	wantHtoD := 4 * (wantWeightFloats + hidden*int64((gen-1)*cfg.Layers))
	if got := pl.Counters.HtoDBytes.Load(); got != wantHtoD {
		t.Errorf("HtoD bytes = %d, want %d", got, wantHtoD)
	}

	// Expert traffic: Close first so in-flight prefetches have landed,
	// then every fetched block must account for exactly one block of
	// bytes, and a run this size must both hit and fetch.
	pl.Close()
	ep := &pl.Counters.ExpertPaging
	fetched := ep.Misses.Load() + ep.Prefetched.Load()
	if want := 4 * int64(pl.layout.ExpertFloats()) * fetched; ep.BytesFetched.Load() != want {
		t.Errorf("expert bytes fetched = %d, want %d (%d fetches)", ep.BytesFetched.Load(), want, fetched)
	}
	if fetched == 0 {
		t.Error("expert pager fetched nothing; generation must page expert weights")
	}
	if ep.Hits.Load() == 0 {
		t.Error("expert pager never hit; resident experts should be reused within a layer")
	}
}

// TestPipelineArenaDiscipline verifies the GPU arena never grows beyond
// what the memory model budgeted (double buffer + activations + hidden).
func TestPipelineArenaDiscipline(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 4, Config{MicroBatch: 2, MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	layout := NewLayout(cfg)
	q, kv := cfg.QDim(), cfg.KVDim()
	nb := 2
	slots := layout.ResidencySlots(0)
	want := 2*layout.SharedFloats() + // double buffer (shared region only)
		slots*layout.ExpertFloats() + // expert pager resident set
		4*cfg.Hidden + // hidden states
		nb*2*(q+2*kv) + nb*2*q // per-micro-batch QKV and attention buffers
	if got := gpu.Used(); got != want {
		t.Errorf("GPU arena used = %d floats, want %d", got, want)
	}
}

func TestPipelineRejectsBadConfig(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(w, gpu, pinned, cacheArena, 0, Config{MicroBatch: 2}); err == nil {
		t.Error("want error for zero sequences")
	}
	if _, err := NewPipeline(w, gpu, pinned, cacheArena, 4, Config{MicroBatch: 0}); err == nil {
		t.Error("want error for zero micro-batch")
	}
}

// TestPipelineOOMsOnTinyGPUArena checks that an undersized GPU arena is
// reported as an allocation failure, not silent corruption.
func TestPipelineOOMsOnTinyGPUArena(t *testing.T) {
	cfg := model.Tiny()
	cpu := memory.NewArena("cpu", 1<<22)
	gpu := memory.NewArena("gpu", 128) // far too small
	pinned := memory.NewArena("pinned", 1<<22)
	cacheArena := memory.NewArena("cache", 1<<22)
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(w, gpu, pinned, cacheArena, 2, Config{MicroBatch: 2, MaxContext: 16}); err == nil {
		t.Fatal("want GPU arena exhaustion error")
	}
}

func ExamplePromptsFromRequests() {
	reqs := []workload.Request{{ID: 0, PromptLen: 3}, {ID: 1, PromptLen: 2}}
	prompts := PromptsFromRequests(reqs, 100)
	fmt.Println(len(prompts[0]), len(prompts[1]))
	// Output: 3 2
}

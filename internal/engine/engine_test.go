package engine

import (
	"fmt"
	"reflect"
	"testing"

	"moelightning/internal/kvcache"
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
		layers        int // 0: Tiny's four
	}{
		{"single-seq", 1, 1, 6, 0},
		{"one-microbatch", 3, 3, 5, 0},
		{"two-microbatches", 4, 2, 6, 0},
		{"many-microbatches", 8, 2, 5, 0},
		{"uneven-tail", 5, 2, 4, 0},
		// Buffer-slot parity flips between steps, and CGOPipe's
		// look-ahead of 2 is clamped to the one micro-batch.
		{"odd-layers-lookahead-past-microbatches", 4, 4, 6, 3},
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
			ref, err := NewReferenceKV(w, refArena, tc.seqs, 64, kvcache.F32)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			want, err := ref.Generate(prompts, tc.gen)
			if err != nil {
				t.Fatalf("reference generate: %v", err)
			}

			pl, err := NewPipeline(w, gpu, pinned, cacheArena, tc.seqs,
				Config{MicroBatch: tc.mu, MaxContext: 64})
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

	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), 4, 64, kvcache.F32)
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
	// The prompt pass streams each layer's shared region once (layers 1
	// to Layers-1, then the first decode step's layer 0); priming layer 0
	// before it adds one more; each of the gen-1 decode steps streams
	// every layer once.
	wantPages := int64(cfg.Layers*nb) + int64(nb) + int64((gen-1)*cfg.Layers*nb)
	if got := pl.Counters.PagesMoved.Load(); got != wantPages {
		t.Errorf("pages moved = %d, want %d", got, wantPages)
	}
	wantWeightFloats := (int64(cfg.Layers) + 1 + int64((gen-1)*cfg.Layers)) * sharedFloats
	// HtoD also carries the attention outputs: loadh moves every
	// micro-batch's rows at every layer, one row of QDim floats per
	// prompt token in the prompt pass and per sequence in each decode
	// step (the transfer regions are sized by rows, and loadh copies the
	// pass's). The counters report bytes (4 per float32 element moved).
	promptTokens := 0
	for _, prompt := range prompts {
		promptTokens += len(prompt)
	}
	attnFloats := int64(cfg.Layers*cfg.QDim()) * int64(promptTokens+(gen-1)*seqs)
	wantHtoD := 4 * (wantWeightFloats + attnFloats)
	if got := pl.Counters.HtoDBytes.Load(); got != wantHtoD {
		t.Errorf("HtoD bytes = %d, want %d", got, wantHtoD)
	}

	// Expert traffic: every fetched block must account for exactly one
	// block of bytes, and a run this size must both hit and fetch.
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

// TestPipelineArenaDiscipline verifies that a pipeline on a NewHost at
// the default residency takes exactly what the memory model budgeted:
// on the GPU the double buffer, the expert pool, hidden states and
// transfer rows; in pinned memory the double buffer's staging and the
// transfer rows alone, since expert blocks cross in one copy.
func TestPipelineArenaDiscipline(t *testing.T) {
	cfg := model.Tiny()
	host, err := NewHost(cfg, 3, 4, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(host.W, host.GPU, host.Pinned, host.Cache, 4, Config{MicroBatch: 2, MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	layout := NewLayout(cfg)
	q, kv := cfg.QDim(), cfg.KVDim()
	// The row workspaces hold the largest pass: a prompt pass of up to
	// DefaultPrefillChunk rows, capped by the KV pool's 4 x 64 tokens.
	rows := min(DefaultPrefillChunk, 4*64)
	// QKV and attention transfer rows, one set on each side of the link.
	transfer := rows*(q+2*kv) + rows*q
	want := 2*layout.SharedFloats() + // double buffer (shared region only)
		layout.ResidencySlots(0)*layout.ExpertFloats() + // expert pager resident set
		rows*cfg.Hidden + // the pass's hidden states
		transfer
	if got := host.GPU.Used(); got != want {
		t.Errorf("GPU arena used = %d floats, want %d", got, want)
	}
	if got, want := host.Pinned.Used(), 2*layout.SharedFloats()+transfer; got != want {
		t.Errorf("pinned arena used = %d floats, want %d (no expert staging)", got, want)
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
	if _, err := NewPipeline(w, gpu, pinned, cacheArena, 4, Config{MicroBatch: 2}); err == nil {
		t.Error("want error for zero context")
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

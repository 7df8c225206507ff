package engine

import (
	"context"
	"testing"

	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// prefillBenchModel is the prefill benchmark config: the decode bench
// geometry with DBRX's 16-expert top-4 routing, so one short prompt would
// give each expert a token or two, while a packed wave gives it
// tile-sized batches.
func prefillBenchModel() model.Config {
	cfg := benchModel()
	cfg.Name = "Bench-MoE-Prefill"
	cfg.Experts = 16
	cfg.TopK = 4
	return cfg
}

// BenchmarkPrefillPacked times the prompt phase of a wave of short
// prompts — the low-arithmetic-intensity regime the HRM analysis says to
// batch — packed into one pass: one QKV batch per micro-batch and one
// cross-sequence expert-grouped FFN pass per layer, causal attention
// fanned as a single task set. Arenas are built once and Reset between
// iterations, exactly as the server reuses them between waves, so
// iteration timings are not dominated by page faults.
func BenchmarkPrefillPacked(b *testing.B) {
	cfg := prefillBenchModel()
	const seqs = 24
	cpuA := memory.NewArena("cpu", 1<<24)
	w, err := NewRandomWeights(cpuA, cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]workload.Request, seqs)
	total := 0
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, PromptLen: 3 + i%3}
		total += reqs[i].PromptLen
	}
	prompts := PromptsFromRequests(reqs, cfg.VocabSize)

	gpu := memory.NewArena("gpu", 1<<23)
	pinned := memory.NewArena("pinned", 1<<23)
	cacheArena := memory.NewArena("cache", 1<<22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gpu.Reset()
		pinned.Reset()
		cacheArena.Reset()
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs,
			Config{MicroBatch: 4, MaxContext: 32})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, err = pl.Run(context.Background(), prompts, nil, 1, nil, nil)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		pl.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/wave")
	b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "tok/s")
}

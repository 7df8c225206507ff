package moelightning

// Thin aliases so bench_test.go reads cleanly while using the internal
// functional engine.

import (
	"moelightning/internal/engine"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

func newArena(n int) *memory.Arena { return memory.NewArena("bench", n) }

func newWeights(cpu *memory.Arena, cfg model.Config, seed int64) (*engine.Weights, error) {
	return engine.NewRandomWeights(cpu, cfg, seed)
}

func newPipeline(w *engine.Weights, gpu, pinned, cache *memory.Arena, seqs, mu int) (*engine.Pipeline, error) {
	return engine.NewPipeline(w, gpu, pinned, cache, seqs,
		engine.Config{MicroBatch: mu, MaxContext: 64})
}

func promptsFrom(reqs []workload.Request, vocab int) [][]int {
	return engine.PromptsFromRequests(reqs, vocab)
}

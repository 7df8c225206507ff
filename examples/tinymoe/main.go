// TinyMoE: the functional engine generating real tokens. A tiny MoE
// transformer runs CGOPipe decode with one goroutine per hardware lane,
// paged weights moving CPU -> pinned -> GPU double buffer, and CPU
// attention over a paged KV cache — then its output is checked
// token-for-token against the sequential reference engine.
package main

import (
	"fmt"
	"log"
	"reflect"

	"moelightning"
	"moelightning/internal/engine"
	"moelightning/internal/memory"
	"moelightning/internal/workload"
)

func main() {
	cfg := moelightning.TinyMoE()
	fmt.Println("model:", cfg)

	// An MTBench-shaped micro workload.
	wl := workload.MTBench(12).WithRequests(6)
	reqs := wl.Generate(7)
	for i := range reqs {
		if reqs[i].PromptLen > 24 {
			reqs[i].PromptLen = 24 // keep the demo quick
		}
	}
	prompts := engine.PromptsFromRequests(reqs, cfg.VocabSize)

	// The host: seeded weights in the CPU arena plus the functional
	// stand-ins for GPU HBM, pinned staging and the KV cache.
	const genLen, maxContext = 10, 64
	host, err := engine.NewHost(cfg, 2024, len(prompts), maxContext, 0)
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := engine.NewPipeline(host.W, host.GPU, host.Pinned, host.Cache, len(prompts),
		engine.Config{MicroBatch: 2, MaxContext: maxContext, Lookahead: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer pipe.Close()

	tokens, err := pipe.Generate(prompts, genLen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngenerated tokens (CGOPipe pipeline):")
	for s, toks := range tokens {
		fmt.Printf("  seq %d (prompt %2d tokens): %v\n", s, len(prompts[s]), toks)
	}

	// Verify against the sequential reference.
	ref, err := engine.NewReference(host.W, memory.NewArena("refcache", host.Cache.Capacity()), len(prompts), maxContext)
	if err != nil {
		log.Fatal(err)
	}
	want, err := ref.Generate(prompts, genLen)
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(tokens, want) {
		log.Fatal("pipeline diverged from the reference!")
	}
	fmt.Println("\npipeline output matches the sequential reference token-for-token")

	pipe.Close() // stops the lanes and the expert prefetcher (waiting out a copy in flight), so counters are final
	fmt.Printf("\ndata movement (bytes): HtoD %d, DtoH %d, pinned staging %d, shared weight pages %d\n",
		pipe.Counters.HtoDBytes.Load(), pipe.Counters.DtoHBytes.Load(),
		pipe.Counters.PinBytes.Load(), pipe.Counters.PagesMoved.Load())
	ep := &pipe.Counters.ExpertPaging
	fmt.Printf("expert paging: %d hits, %d misses, %d prefetched, %d evicted, %d bytes fetched\n",
		ep.Hits.Load(), ep.Misses.Load(), ep.Prefetched.Load(), ep.Evicted.Load(), ep.BytesFetched.Load())
	fmt.Printf("kernels: %d GPU launches, %d CPU attention calls\n",
		pipe.Counters.GPUKernels.Load(), pipe.Counters.CPUAttns.Load())

	fmt.Println("\nexpert load per layer (router statistics):")
	for l, load := range pipe.ExpertLoad {
		fmt.Printf("  layer %d: %v\n", l, load)
	}
}

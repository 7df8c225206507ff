package engine

import (
	"math/rand"
	"testing"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/tensor"
	"moelightning/internal/workload"
)

// benchFFNSetup builds a random micro-batch for the expert-FFN
// comparison benchmarks.
func benchFFNSetup(b *testing.B, n int) (layout Layout, layer []float32, attn, x tensor.Mat) {
	b.Helper()
	cfg := benchModel()
	cpu := memory.NewArena("cpu", 1<<23)
	w, err := NewRandomWeights(cpu, cfg, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	attn = tensor.NewMat(n, cfg.QDim())
	x = tensor.NewMat(n, cfg.Hidden)
	for i := range attn.Data {
		attn.Data[i] = rng.Float32() - 0.5
	}
	for i := range x.Data {
		x.Data[i] = rng.Float32() - 0.5
	}
	return w.Layout, w.Layers[0].Data(), attn, x
}

// BenchmarkKernelsExpertFFN measures the expert-grouped post-attention
// path on a 32-token micro-batch: one batched GEMM triple per expert.
func BenchmarkKernelsExpertFFN(b *testing.B) {
	layout, layer, attn, x := benchFFNSetup(b, 32)
	pristine := append([]float32(nil), x.Data...)
	scratch := newFFNScratch(layout, x.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x.Data, pristine)
		postAttention(layout, layer, residentExperts{layout: layout, data: layer}, attn, x, scratch)
	}
}

// BenchmarkKernelsExpertFFNSeedScalar is the seed baseline: tokens x
// top-k separate GEMVs with per-token routing.
func BenchmarkKernelsExpertFFNSeedScalar(b *testing.B) {
	layout, layer, attn, x := benchFFNSetup(b, 32)
	pristine := append([]float32(nil), x.Data...)
	scratch, rows := newSeedScratch(layout), newFFNScratch(layout, x.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x.Data, pristine)
		seedPostAttention(layout, layer, residentExperts{layout: layout, data: layer}, attn, x, scratch, rows)
	}
}

// benchModel is the decode benchmark config: Tiny's attention geometry
// with a paper-ratio expert FFN (Mixtral's h2/h1 is 3.5; Tiny's 2x is
// too lean to represent where decode time actually goes), so the
// benchmark exercises the kernels at representative arithmetic
// intensity while staying laptop-sized.
func benchModel() model.Config {
	cfg := model.Tiny()
	cfg.Name = "Bench-MoE"
	cfg.Intermediate = 448
	return cfg
}

// benchDecodeStep times steady-state CGOPipe decode steps (prefill and
// the LM head excluded) over seqs sequences in seqs/mu micro-batches.
// residencyBytes sizes the expert-weight resident set (0 = the default
// two-layer working set); decode-phase expert paging traffic is
// reported as MiB/step so cold-vs-warm comparisons can attribute the
// ms/step gap to weight movement.
func benchDecodeStep(b *testing.B, seed bool, dtype kvcache.DType, residencyBytes, seqs, mu int) {
	b.Helper()
	cfg := benchModel()
	const steps, promptLen = 8, 4
	cpuA := memory.NewArena("cpu", 1<<22)
	w, err := NewRandomWeights(cpuA, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]workload.Request, seqs)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, PromptLen: promptLen}
	}
	prompts := PromptsFromRequests(reqs, cfg.VocabSize)

	var decodeFetched int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gpu := memory.NewArena("gpu", 1<<23)
		pinned := memory.NewArena("pinned", 1<<23)
		cacheArena := memory.NewArena("cache", 1<<22)
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs,
			Config{MicroBatch: mu, MaxContext: 64, KVDtype: dtype, ExpertResidencyBytes: residencyBytes})
		if err != nil {
			b.Fatal(err)
		}
		if seed {
			pl.kern = newSeedKernels(pl.layout)
		}
		if err := pl.prefill(prompts); err != nil {
			b.Fatal(err)
		}
		if err := stageLayer(pl, 0); err != nil {
			b.Fatal(err)
		}
		base := pl.Counters.ExpertPaging.BytesFetched.Load()
		b.StartTimer()
		for t := 0; t < steps; t++ {
			if err := pl.decodeStep(t); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		pl.Close()
		decodeFetched += pl.Counters.ExpertPaging.BytesFetched.Load() - base
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps)/1e6, "ms/step")
	b.ReportMetric(float64(seqs*steps*b.N)/b.Elapsed().Seconds(), "tok/s")
	b.ReportMetric(float64(decodeFetched)/float64(b.N*steps)/(1<<20), "pagedMiB/step")
}

// BenchmarkDecodeStep is the optimized engine: expert-grouped batched
// GEMMs, pooled buffers, parallel kernels.
func BenchmarkDecodeStep(b *testing.B) {
	benchDecodeStep(b, false, kvcache.F32, 0, 64, 32)
}

// BenchmarkDecodeStepSeedScalar swaps the seed scalar kernels into the
// same pipeline; the ratio of the two ms/step metrics is the kernel
// rewrite's speedup.
func BenchmarkDecodeStepSeedScalar(b *testing.B) {
	benchDecodeStep(b, true, kvcache.F32, 0, 64, 32)
}

// BenchmarkDecodeStepQuantKV runs the same decode steps over an Int8
// KV cache: Append quantizes, attention dequantizes rows in place.
// Compare ms/step against BenchmarkDecodeStep for the codec's compute
// cost — the win it buys is 2x+ context per cache byte, not speed.
func BenchmarkDecodeStepQuantKV(b *testing.B) {
	benchDecodeStep(b, false, kvcache.Int8, 0, 64, 32)
}

// BenchmarkDecodeStepColdExperts squeezes the expert resident set to a
// single block, so every expert activation is a demand miss fetched
// synchronously on the GPU lane. The cold/warm pair decodes a small
// 8-sequence batch — the memory-bound decode regime expert paging
// exists for, where a fetched block amortizes over ~4 tokens instead
// of ~32 and weight movement is a first-order cost. Compare ms/step
// and pagedMiB/step against BenchmarkDecodeStepWarmExperts: the time
// gap is the movement the pager normally hides.
func BenchmarkDecodeStepColdExperts(b *testing.B) {
	benchDecodeStep(b, false, kvcache.F32, 1, 8, 4)
}

// BenchmarkDecodeStepWarmExperts gives the pager room for every expert
// block in the model over the same small batch, so after the first pass
// through the layers decode runs fully warm-resident with zero paging
// traffic.
func BenchmarkDecodeStepWarmExperts(b *testing.B) {
	benchDecodeStep(b, false, kvcache.F32, 1<<30, 8, 4)
}

package engine

import (
	"context"
	"errors"
	"testing"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/tensor"
	"moelightning/internal/workload"
)

// seqPrefill is the pre-packing prefill, preserved verbatim as the
// benchmark baseline for the wave-packed rewrite (mirroring
// seed_bench_test.go): within each layer every sequence runs its own
// QKV GEMM, its own causal attention fan-out and its own expert-FFN
// pass — numSeqs x layers skinny GEMM triples, tiny per-expert
// batches, and short prompts serializing behind long ones.
func seqPrefill(p *Pipeline, prompts [][]int) error {
	cfg := p.w.Cfg
	layout := p.layout
	q, kv := cfg.QDim(), cfg.KVDim()

	total := 0
	maxLen := 0
	rowOf := make([]int, len(prompts))
	for s, prompt := range prompts {
		rowOf[s] = total
		total += len(prompt)
		if len(prompt) > maxLen {
			maxLen = len(prompt)
		}
	}

	x := tensor.NewMat(total, cfg.Hidden)
	qkvBuf := make([]float32, maxLen*(q+2*kv))
	attnOut := tensor.NewMat(maxLen, q)
	positions := make([]int, maxLen)
	for t := range positions {
		positions[t] = t
	}
	scratch := newFFNScratch(layout, maxLen)
	quantized := p.cache.DType() == kvcache.Int8
	var qKeys, qVals []tensor.QBlock
	if quantized {
		maxBlocks := (maxLen+p.cache.BlockTokens()-1)/p.cache.BlockTokens() + 1
		qKeys = make([]tensor.QBlock, 0, maxBlocks)
		qVals = make([]tensor.QBlock, 0, maxBlocks)
	}

	for s, prompt := range prompts {
		for t, tok := range prompt {
			copy(x.Row(rowOf[s]+t), p.w.Embedding.Row(tok))
		}
	}

	for l := 0; l < cfg.Layers; l++ {
		if err := stageLayer(p, l); err != nil {
			return err
		}
		shared := p.db.Slot(l).Data()
		p.expSrc.layer = l
		for s, prompt := range prompts {
			if p.seqErr[s] != nil {
				continue
			}
			n := len(prompt)
			rows := tensor.FromSlice(n, cfg.Hidden, x.Data[rowOf[s]*cfg.Hidden:(rowOf[s]+n)*cfg.Hidden])
			qkv := qkvBuf[:n*(q+2*kv)]
			p.kern.preAttn(layout, shared, rows, positions[:n], qkv, scratch.normed)
			queries, keys, values := qkvViews(qkv, n, q, kv)
			arows := tensor.FromSlice(n, q, attnOut.Data[:n*q])

			for t := 0; t < n; t++ {
				if err := p.cache.Append(s, l, keys.Row(t), values.Row(t)); err != nil {
					if errors.Is(err, kvcache.ErrOutOfBlocks) {
						p.seqErr[s] = err
						p.retire(s)
						break
					}
					return err
				}
				p.Counters.DtoHBytes.Add(int64(p.cache.TokenBytes()))
			}
			if p.seqErr[s] != nil {
				continue
			}

			item := tensor.CausalItem{Out: arows, Queries: queries}
			if quantized {
				qKeys, qVals, _ = p.cache.QBlockView(s, l, qKeys[:0], qVals[:0])
				item.KeyQBlocks, item.ValueQBlocks = qKeys, qVals
			} else {
				item.KeyBlocks, item.ValueBlocks = []tensor.Mat{keys}, []tensor.Mat{values}
			}
			tensor.AttendCausalMany([]tensor.CausalItem{item}, cfg.QHeads, cfg.KVHeads, cfg.HeadDim)
			p.kern.route(layout, shared, arows, rows, scratch, 0)
			chosen := p.kern.ffn(layout, &p.expSrc, rows, scratch)
			for _, experts := range chosen {
				for _, e := range experts {
					p.ExpertLoad[l][e]++
				}
			}
			p.Counters.GPUKernels.Add(2)
		}
	}

	for s, prompt := range prompts {
		if p.seqErr[s] != nil {
			continue
		}
		copy(p.hidden.Row(s), x.Row(rowOf[s]+len(prompt)-1))
	}
	return nil
}

// TestSeqPrefillBaselineStillExact guards the preserved baseline: the
// benchmark comparison is only meaningful while both prefills compute
// the same thing.
func TestSeqPrefillBaselineStillExact(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 19)
	if err != nil {
		t.Fatal(err)
	}
	prompts := mixedPrompts(cfg.VocabSize)
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, len(prompts), Config{MicroBatch: 2, MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if err := seqPrefill(pl, prompts); err != nil {
		t.Fatal(err)
	}

	gpu2 := memory.NewArena("gpu2", 1<<22)
	pinned2 := memory.NewArena("pinned2", 1<<22)
	cache2 := memory.NewArena("cache2", 1<<22)
	pl2, err := NewPipeline(w, gpu2, pinned2, cache2, len(prompts), Config{MicroBatch: 2, MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pl2.Close()
	if _, err := pl2.Run(context.Background(), prompts, nil, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	// The 63 prompt tokens are one pass, laid out in sequence order (the
	// micro-batches are consecutive), so sequence s's last token is the
	// row after every earlier prompt's tokens and its own but one.
	if pl2.passes != 1 {
		t.Fatalf("%d prompt passes, want 1", pl2.passes)
	}
	last := -1
	for s, prompt := range prompts {
		last += len(prompt)
		for i, v := range pl.hidden.Row(s) {
			if v != pl2.hidden.Row(last)[i] {
				t.Fatalf("seq %d hidden[%d]: baseline %g != packed %g", s, i, v, pl2.hidden.Row(last)[i])
			}
		}
	}
}

// prefillBenchModel is the prefill benchmark config: the decode bench
// geometry with DBRX's 16-expert top-4 routing, so a short prompt's
// per-expert FFN batches are realistically tiny — one or two tokens —
// while a packed wave's are tile-sized (the regime wave packing exists
// to fix).
func prefillBenchModel() model.Config {
	cfg := benchModel()
	cfg.Name = "Bench-MoE-Prefill"
	cfg.Experts = 16
	cfg.TopK = 4
	return cfg
}

// benchPrefill times one prompt-phase pass over a wave of short
// prompts — the low-arithmetic-intensity regime the HRM analysis says
// to batch — under the packed or the preserved sequence-at-a-time
// prefill. The ratio of the packed and sequential tok/s metrics is the
// packing speedup; with seed kernels swapped in (mirroring
// BenchmarkDecodeStepSeedScalar) the sequential run instead measures
// the full distance from the seed prefill. Arenas are built once and
// Reset between iterations, exactly as the server reuses them between
// waves, so iteration timings are not dominated by page faults.
//
// On one core the packing win is bounded by scalar GEMM shape
// efficiency (the 4-row register tile vs the baseline's 1-3-row
// remainder path, ~1.2-1.3x); with more workers the packed batch also
// row-tiles across the pool and fans attention as one task set where
// the baseline's skinny per-sequence GEMMs cannot, so the gap widens
// with core count.
func benchPrefill(b *testing.B, packed, seedKernels bool) {
	b.Helper()
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
		if seedKernels {
			pl.kern = newSeedKernels(pl.layout)
		}
		b.StartTimer()
		if packed {
			_, err = pl.Run(context.Background(), prompts, nil, 1, nil, nil)
		} else {
			err = seqPrefill(pl, prompts)
		}
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

// BenchmarkPrefillPacked is the wave-packed prefill: one QKV batch and
// one cross-sequence expert-grouped FFN pass per layer, causal
// attention fanned as a single task set.
func BenchmarkPrefillPacked(b *testing.B) {
	benchPrefill(b, true, false)
}

// BenchmarkPrefillSequentialBaseline is the preserved pre-packing
// prefill with the optimized kernels: per-sequence GEMMs and
// per-sequence attention fan-outs within each layer. The packed-vs-
// this ratio isolates the scheduling win.
func BenchmarkPrefillSequentialBaseline(b *testing.B) {
	benchPrefill(b, false, false)
}

// BenchmarkPrefillSequentialSeedScalar runs the preserved sequential
// prefill over the seed scalar kernels (token-at-a-time GEMVs,
// per-call allocations), mirroring seed_bench_test.go: the packed-vs-
// this ratio is the prompt phase's total gain since the seed engine.
func BenchmarkPrefillSequentialSeedScalar(b *testing.B) {
	benchPrefill(b, false, true)
}

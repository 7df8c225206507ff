package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// prefixRequests builds n requests sharing a prefixLen-token system
// prompt (PrefixID id), with per-request suffix lengths tailLens[i].
func prefixRequests(n, id, prefixLen int, tailLens []int) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{
			ID: i + 1, PromptLen: prefixLen + tailLens[i%len(tailLens)],
			PrefixID: id, PrefixLen: prefixLen,
		}
	}
	return reqs
}

// TestPrefillSharedPrefixBitIdentical is prefix sharing's correctness
// contract: a wave of requests sharing a block-aligned prompt prefix
// generates exactly the sequential reference's tokens, under both
// codecs and under any partition and prompt budget — mapped prefix rows
// are the rows the follower would have computed. The run must also
// account the skipped tokens in PrefixHitTokens.
func TestPrefillSharedPrefixBitIdentical(t *testing.T) {
	cfg := model.Tiny()
	for _, dtype := range []kvcache.DType{kvcache.F32, kvcache.Int8} {
		t.Run(dtype.String(), func(t *testing.T) {
			cpu := memory.NewArena("cpu", 1<<22)
			w, err := NewRandomWeights(cpu, cfg, 23)
			if err != nil {
				t.Fatal(err)
			}
			reqs := prefixRequests(4, 7, 32, []int{8, 6, 4, 9})
			prompts := PromptsFromRequests(reqs, cfg.VocabSize)
			const gen = 5

			ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), 4, 64, dtype)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Generate(prompts, gen)
			if err != nil {
				t.Fatal(err)
			}

			for _, pc := range []struct {
				Config
				partition [][]int
			}{
				{Config: Config{MicroBatch: 2}},
				// Sequence 0 in a later micro-batch than sequences 1 and 2,
				// which issue first and so donate, and a 16-token budget that
				// splits the donor's prompt across passes.
				{Config: Config{PrefillChunk: 16}, partition: [][]int{{1, 2}, {0, 3}}},
			} {
				pc.MaxContext, pc.KVDtype = 64, dtype
				gpu := memory.NewArena("gpu", 1<<22)
				pinned := memory.NewArena("pinned", 1<<22)
				cacheArena := memory.NewArena("cache", 1<<22)
				pl, err := NewPipeline(w, gpu, pinned, cacheArena, 4, pc.Config)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pl.Run(context.Background(), prompts, pc.partition, gen, nil, nil)
				if err != nil {
					pl.Close()
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					pl.Close()
					t.Fatalf("partition %v: tokens diverge from reference:\n got %v\nwant %v", pc.partition, got, want)
				}
				// Three followers each skip at least the 32 aligned prefix
				// tokens (the LCP can extend past the declared prefix if
				// suffix streams coincide — still correct, just more hits).
				if h := pl.Counters.PrefixHitTokens.Load(); h < 3*32 {
					t.Errorf("partition %v: mapped %d tokens, want >= %d", pc.partition, h, 3*32)
				}
				pl.Close()
			}
		})
	}
}

// TestPrefillSharedPrefixWholeBlocksOnly: under both codecs, a follower
// matching 24 of the donor's 40 tokens maps only the one whole block
// those 24 cover and computes the rest of its prompt, the first eight
// matched tokens included, into blocks of its own — bit-identical to
// the reference.
func TestPrefillSharedPrefixWholeBlocksOnly(t *testing.T) {
	cfg := model.Tiny()
	donor := make([]int, 40)
	for i := range donor {
		donor[i] = (i*11 + 7) % cfg.VocabSize
	}
	follower := make([]int, 30)
	copy(follower, donor[:24])
	for i := 24; i < len(follower); i++ {
		follower[i] = (donor[i] + 1 + i) % cfg.VocabSize
	}
	prompts := [][]int{donor, follower}
	const gen = 4

	for _, dtype := range []kvcache.DType{kvcache.F32, kvcache.Int8} {
		t.Run(dtype.String(), func(t *testing.T) {
			cpu := memory.NewArena("cpu", 1<<22)
			w, err := NewRandomWeights(cpu, cfg, 31)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), 2, 64, dtype)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Generate(prompts, gen)
			if err != nil {
				t.Fatal(err)
			}

			gpu := memory.NewArena("gpu", 1<<22)
			pinned := memory.NewArena("pinned", 1<<22)
			cacheArena := memory.NewArena("cache", 1<<22)
			pl, err := NewPipeline(w, gpu, pinned, cacheArena, 2,
				Config{MicroBatch: 2, MaxContext: 64, KVDtype: dtype})
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()
			got, err := pl.Generate(prompts, gen)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tokens diverge from reference:\n got %v\nwant %v", got, want)
			}
			if hits := pl.Counters.PrefixHitTokens.Load(); hits != 16 {
				t.Errorf("prefix hits = %d, want 16 (one whole block)", hits)
			}
			if n := pl.PrefillTokens; n != len(donor)+len(follower)-16 {
				t.Errorf("prefilled %d tokens, want %d", n, len(donor)+len(follower)-16)
			}
		})
	}
}

// TestPrefillSharedPrefixAcceptance is prefix sharing's headline
// scenario: a 16-request chat wave sharing a 512-token system prompt
// completes in a KV pool sized for the no-sharing footprint of only 4
// requests, prefilling >= 5x fewer tokens than the wave's prompt total,
// with PrefixHitTokens accounting for exactly the difference — and the
// tokens bit-identical to the sequential reference given unlimited
// memory.
func TestPrefillSharedPrefixAcceptance(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded 512-token wave is prohibitively slow under -race; sharing paths are race-tested by TestConcurrentSubmitSharedPrefix")
	}
	cfg := model.Tiny()
	cpu := memory.NewArena("cpu", 1<<22)
	w, err := NewRandomWeights(cpu, cfg, 17)
	if err != nil {
		t.Fatal(err)
	}

	const seqs, prefixLen, gen = 16, 512, 4
	prefix := make([]int, prefixLen)
	for i := range prefix {
		prefix[i] = (i*13 + 5) % cfg.VocabSize
	}
	prompts := make([][]int, seqs)
	totalPrompt := 0
	for s := range prompts {
		tail := make([]int, 4+s%5)
		for j := range tail {
			tail[j] = (s*31 + j*7 + 1) % cfg.VocabSize
		}
		prompts[s] = append(append([]int{}, prefix...), tail...)
		totalPrompt += len(prompts[s])
	}

	// Per-request no-sharing footprint: ceil((prompt+gen)/block) blocks
	// per layer, prompt <= 520, so 33 blocks x Layers. The pool holds
	// exactly 4 requests' worth; without sharing the wave needs 16.
	blockFloats := 16 * cfg.KVDim() * 2
	perReqBlocks := (prefixLen + 8 + gen + 15) / 16 * cfg.Layers
	poolBlocks := 4 * perReqBlocks
	// NewPipeline sizes the pool as seqs*MaxContext tokens across layers.
	maxContext := poolBlocks / cfg.Layers * 16 / seqs
	// Sanity on the claim itself: without sharing, at most 4 of the 16
	// requests' footprints fit the pool together.
	fit, used := 0, 0
	for _, p := range prompts {
		if need := (len(p) + gen + 15) / 16 * cfg.Layers; used+need <= poolBlocks {
			fit, used = fit+1, used+need
		}
	}
	if fit > 4 {
		t.Fatalf("%d requests' no-sharing footprints fit the %d-block pool, want at most 4", fit, poolBlocks)
	}

	// Ground truth: the reference with a cache big enough for all 16.
	ref, err := NewReferenceKV(w, memory.NewArena("rc", seqs*(prefixLen+32)/16*cfg.Layers*blockFloats), seqs, prefixLen+32, kvcache.F32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, gen)
	if err != nil {
		t.Fatal(err)
	}

	// The wave in the 4-request pool.
	smallCache := memory.NewArena("smallcache", poolBlocks*blockFloats)
	pl, err := NewPipeline(w, memory.NewArena("gpu", 1<<22), memory.NewArena("pin", 1<<22),
		smallCache, seqs, Config{MicroBatch: 4, MaxContext: maxContext})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, err := pl.Generate(prompts, gen)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < seqs; s++ {
		if serr := pl.SeqErr(s); serr != nil {
			t.Fatalf("wave starved seq %d in the 4-request pool: %v", s, serr)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("tokens diverge from the reference")
	}

	hits := int(pl.Counters.PrefixHitTokens.Load())
	if hits != (seqs-1)*prefixLen {
		t.Errorf("prefix hits = %d, want %d (15 followers x 512)", hits, (seqs-1)*prefixLen)
	}
	if pl.PrefillTokens+hits != totalPrompt {
		t.Errorf("prefilled %d + mapped %d != prompt total %d", pl.PrefillTokens, hits, totalPrompt)
	}
	if 5*pl.PrefillTokens > totalPrompt {
		t.Errorf("prefilled %d tokens of %d; want >= 5x reduction", pl.PrefillTokens, totalPrompt)
	}
}

// TestPrefillSharedPrefixFollowerExhaustion: a FOLLOWER whose long
// divergent tail exhausts the pool mid-prefill retires alone — the
// donor and the other follower, whose prompts share the donor's blocks,
// finish bit-identical to the reference, and the offender's private
// blocks return to the pool while the shared block stays resident.
func TestPrefillSharedPrefixFollowerExhaustion(t *testing.T) {
	cfg := model.Tiny()
	cpu := memory.NewArena("cpu", 1<<22)
	w, err := NewRandomWeights(cpu, cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	prefix := make([]int, 16)
	for i := range prefix {
		prefix[i] = (i*9 + 3) % cfg.VocabSize
	}
	hog := append(append([]int{}, prefix...), make([]int, 33)...)
	for i := 16; i < len(hog); i++ {
		hog[i] = (i*5 + 2) % cfg.VocabSize
	}
	small := append(append([]int{}, prefix...), make([]int, 8)...)
	for i := 16; i < len(small); i++ {
		small[i] = (i*3 + 11) % cfg.VocabSize
	}
	prompts := [][]int{prefix, hog, small}
	const gen = 4

	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), 3, 64, kvcache.F32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, gen)
	if err != nil {
		t.Fatal(err)
	}

	// Pool of 12 blocks (3 seqs x MaxContext 16): the full wave would
	// need 1 shared + 3 hog + 1 small block per layer plus the donor's
	// decode block — the hog's layer-2 appends find the pool empty.
	blockFloats := 16 * cfg.KVDim() * 2
	cacheArena := memory.NewArena("cache", 12*blockFloats)
	pl, err := NewPipeline(w, memory.NewArena("gpu", 1<<22), memory.NewArena("pin", 1<<22),
		cacheArena, 3, Config{MicroBatch: 3, MaxContext: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, err := pl.Generate(prompts, gen)
	if err != nil {
		t.Fatalf("follower exhaustion failed the whole wave: %v", err)
	}
	if serr := pl.SeqErr(1); !errors.Is(serr, kvcache.ErrOutOfBlocks) {
		t.Fatalf("SeqErr(hog) = %v, want ErrOutOfBlocks", serr)
	}
	if len(got[1]) != 0 {
		t.Fatalf("hog emitted %v despite failing in prefill", got[1])
	}
	for _, s := range []int{0, 2} {
		if serr := pl.SeqErr(s); serr != nil {
			t.Fatalf("survivor %d has error %v", s, serr)
		}
		if !reflect.DeepEqual(got[s], want[s]) {
			t.Fatalf("survivor %d diverged: %v vs %v", s, got[s], want[s])
		}
	}
	// The surviving follower mapped the 16-token prefix at zero cost.
	if hits := pl.Counters.PrefixHitTokens.Load(); hits != 16 {
		t.Errorf("prefix hits = %d, want 16 (the surviving follower's)", hits)
	}
}

// TestServeSharedPrefixWave runs prefix-sharing requests through the
// wave server: outputs equal the reference's, and the stats attribute
// the followers' prefixes to PrefixHitTokens with a consistent hit
// ratio.
func TestServeSharedPrefixWave(t *testing.T) {
	cfg := model.Tiny()
	reqs := prefixRequests(4, 3, 16, []int{6, 4, 8, 5})
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, reqs, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 50},
		NumMicroBatches: 2, GenLen: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), len(reqs), 50, kvcache.F32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(PromptsFromRequests(reqs, cfg.VocabSize), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if !reflect.DeepEqual(res.Outputs[r.ID], want[i]) {
			t.Errorf("request %d diverged from the reference:\n got %v\nwant %v", r.ID, res.Outputs[r.ID], want[i])
		}
	}
	if res.PrefixHitTokens < 3*16 {
		t.Errorf("prefix hits = %d, want >= 48 (three followers x one block)", res.PrefixHitTokens)
	}
	wantRatio := float64(res.PrefixHitTokens) / float64(res.PrefixHitTokens+res.PrefillTokens)
	if res.PrefixHitRatio != wantRatio {
		t.Errorf("hit ratio = %v, want %v", res.PrefixHitRatio, wantRatio)
	}
}

// TestServeRetainedPrefixAcrossWaves: a prompt prefix one wave computed
// serves later waves from the cache, bit-identical to the reference
// under both codecs. Wave 1 runs request 1 alone, with a 64-token system
// prompt (four blocks). Wave 2 runs request 2 alone, which shares that
// prompt: with no wave-mate it maps exactly the 64 cached tokens. Wave 3
// mixes a third cached hit with a wave-mate pair opening with a new
// 32-token prompt, one of which maps it from the other. The KV audit
// passes after every wave, cached blocks and all.
func TestServeRetainedPrefixAcrossWaves(t *testing.T) {
	cfg := model.Tiny()
	const genLen, maxContext = 4, 100
	waves := [][]workload.Request{
		{{ID: 1, PromptLen: 70, PrefixID: 5, PrefixLen: 64}},
		{{ID: 2, PromptLen: 73, PrefixID: 5, PrefixLen: 64}},
		{
			{ID: 3, PromptLen: 67, PrefixID: 5, PrefixLen: 64},
			{ID: 4, PromptLen: 40, PrefixID: 6, PrefixLen: 32},
			{ID: 5, PromptLen: 38, PrefixID: 6, PrefixLen: 32},
		},
	}
	// Prefix hits each wave adds: none, the cached prompt, the cached
	// prompt plus the wave-mate's; the cached part of each.
	wantHits := []int{0, 64, 64 + 32}
	wantRetained := []int{0, 64, 64}
	for _, dtype := range []kvcache.DType{kvcache.F32, kvcache.Int8} {
		t.Run(dtype.String(), func(t *testing.T) {
			cpu, gpu, pinned, cacheArena := newTestArenas()
			w, err := NewRandomWeights(cpu, cfg, 41)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
				Config:          Config{MicroBatch: 2, MaxContext: maxContext, KVDtype: dtype},
				NumMicroBatches: 2, GenLen: genLen,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var all []workload.Request
			for _, wave := range waves {
				all = append(all, wave...)
			}
			ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), len(all), maxContext, dtype)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Generate(PromptsFromRequests(all, cfg.VocabSize), genLen)
			if err != nil {
				t.Fatal(err)
			}

			// The server's loop stays idle (nothing is submitted): the test
			// runs the waves itself, one after another.
			next := 0
			for i, wave := range waves {
				before := s.Stats()
				hs := make([]*Handle, len(wave))
				for k, req := range wave {
					hs[k] = newHandle(req, nil, genLen, SLO{})
				}
				if pending := s.runWave(hs); len(pending) != 0 {
					t.Fatalf("wave %d deferred %d requests", i+1, len(pending))
				}
				for _, h := range hs {
					got, err := h.Wait()
					if err != nil {
						t.Fatalf("wave %d request %d: %v", i+1, h.ID(), err)
					}
					if !reflect.DeepEqual(got, want[next]) {
						t.Errorf("wave %d request %d diverged from the reference:\n got %v\nwant %v", i+1, h.ID(), got, want[next])
					}
					next++
				}
				st := s.Stats()
				if hits := st.PrefixHitTokens - before.PrefixHitTokens; hits != wantHits[i] {
					t.Errorf("wave %d mapped %d prefix tokens, want %d", i+1, hits, wantHits[i])
				}
				if kept := st.RetainedHitTokens - before.RetainedHitTokens; kept != wantRetained[i] {
					t.Errorf("wave %d mapped %d cached prefix tokens, want %d", i+1, kept, wantRetained[i])
				}
				if st.KVLeaks != 0 {
					t.Fatalf("wave %d failed its KV audit", i+1)
				}
				assertKVIdle(t, s.pl)
			}
		})
	}
}

// TestConcurrentSubmitSharedPrefix hammers the server with concurrent
// prefix-sharing submissions (run under -race in CI): every request
// must complete with its full generation, and the sharing counters must
// stay coherent. Wave composition under concurrency is timing-
// dependent, so hit counts are sanity-checked rather than pinned.
func TestConcurrentSubmitSharedPrefix(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 29)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 4, MaxContext: 50},
		NumMicroBatches: 2, GenLen: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	const pairs = 6
	handles := make([][]*Handle, pairs)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(pairs)
	for g := 0; g < pairs; g++ {
		go func(g int) {
			defer done.Done()
			start.Wait()
			reqs := []workload.Request{
				{ID: 2*g + 1, PromptLen: 20 + g, PrefixID: 9, PrefixLen: 16},
				{ID: 2*g + 2, PromptLen: 21 + g, PrefixID: 9, PrefixLen: 16},
			}
			hs, err := srv.SubmitBatch(context.Background(), reqs)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			handles[g] = hs
		}(g)
	}
	start.Done()
	done.Wait()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for g, hs := range handles {
		for i, h := range hs {
			tokens, herr := h.Wait()
			if herr != nil {
				t.Fatalf("pair %d handle %d failed: %v", g, i, herr)
			}
			if len(tokens) != 4 {
				t.Fatalf("pair %d handle %d generated %d tokens, want 4", g, i, len(tokens))
			}
		}
	}
	st := srv.Stats()
	if st.Completed != 2*pairs {
		t.Fatalf("completed = %d, want %d", st.Completed, 2*pairs)
	}
	if st.PrefixHitRatio < 0 || st.PrefixHitRatio > 1 {
		t.Fatalf("hit ratio %v out of [0,1]", st.PrefixHitRatio)
	}
	if st.PrefixHitTokens%16 != 0 {
		t.Fatalf("prefix hits %d not block-aligned", st.PrefixHitTokens)
	}
}

// BenchmarkPrefillSharedPrefix times a wave where one cold request
// prefills a 512-token system prompt and seven warm followers map it:
// tok/s counts tokens actually computed, hit_tok/s the mapped tokens —
// the prompt throughput prefix sharing adds on top.
func BenchmarkPrefillSharedPrefix(b *testing.B) {
	cfg := model.Tiny()
	cpuA := memory.NewArena("cpu", 1<<22)
	w, err := NewRandomWeights(cpuA, cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	const seqs, prefixLen = 8, 512
	prefix := make([]int, prefixLen)
	for i := range prefix {
		prefix[i] = (i*13 + 5) % cfg.VocabSize
	}
	prompts := make([][]int, seqs)
	for s := range prompts {
		tail := make([]int, 8)
		for j := range tail {
			tail[j] = (s*31 + j*7 + 1) % cfg.VocabSize
		}
		prompts[s] = append(append([]int{}, prefix...), tail...)
	}

	gpu := memory.NewArena("gpu", 1<<23)
	pinned := memory.NewArena("pinned", 1<<23)
	cacheArena := memory.NewArena("cache", 1<<21)
	computed, hits := 0, int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		gpu.Reset()
		pinned.Reset()
		cacheArena.Reset()
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs,
			Config{MicroBatch: 4, MaxContext: prefixLen + 16})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, err = pl.Run(context.Background(), prompts, nil, 1, nil, nil)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		computed += pl.PrefillTokens
		hits += pl.Counters.PrefixHitTokens.Load()
		pl.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/wave")
	b.ReportMetric(float64(computed)/b.Elapsed().Seconds(), "tok/s")
	b.ReportMetric(float64(hits)/b.Elapsed().Seconds(), "hit_tok/s")
}

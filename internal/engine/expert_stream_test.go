package engine

import (
	"context"
	"reflect"
	"testing"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/paging"
)

// streamModel is the expert-stream test model: the standing
// benchmark's 6 layers x 8 experts (so the default two-layer pool is 16
// slots against 48 blocks) at Tiny's widths.
func streamModel() model.Config {
	cfg := model.Tiny()
	cfg.Name = "Stream-MoE"
	cfg.Layers, cfg.Experts = 6, 8
	return cfg
}

// TestExpertStreamFetchesEachBlockOnce: a warm decode step visits each
// routed expert once and moves its block about once, and the tokens stay
// the reference's — whether or not a micro-batch empties mid-decode and
// however the wave is partitioned. All of it is counts, so it holds on a
// slow host and under -race:
//
//   - pager acquisitions (hits + misses) == distinct (layer, expert)
//     pairs routed: ffn(l) buckets the rows of every micro-batch, so an
//     expert is acquired once a layer however many micro-batches route
//     to it. Bucketing per micro-batch acquired ~2.6x that at 4x4.
//   - under the default residency, bytes fetched <= 1.15 x routed blocks,
//     the bytes CGOPipe's schedule and Eq. 8 charge (a block the expert
//     shares fetched that no row routes to is bytes over the routed count;
//     fetching each block twice — prefetched, evicted unused, fetched
//     again on demand — is what the bound is there to catch).
//   - with one resident block every visit is a demand fetch and nothing
//     is prefetched, so bytes fetched == routed pairs x block bytes.
func TestExpertStreamFetchesEachBlockOnce(t *testing.T) {
	cfg := streamModel()
	const seqs, mu, gen, warmFrom = 16, 4, 14, 2
	prompts := testPrompts(seqs, 3, 9, cfg.VocabSize)
	cpu := memory.NewArena("cpu", 1<<22)
	w, err := NewRandomWeights(cpu, cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), seqs, 64, kvcache.F32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, gen)
	if err != nil {
		t.Fatal(err)
	}
	blockBytes := int64(4 * NewLayout(cfg).ExpertFloats())

	for _, tc := range []struct {
		name string
		// retireAfter > 0 stops every sequence of micro-batch 0 once it
		// has emitted that many tokens: the layer announcement and the
		// prefetch ride on micro-batch 0's task and must outlive it.
		retireAfter int
		// partition, when set, runs its sequences (the first of the 16)
		// in these micro-batches instead of 4x4.
		partition [][]int
		// residency is Config.ExpertResidencyBytes; 0 is two layers.
		residency int
	}{
		{name: "full-wave"},
		{name: "micro-batch-0-retires", retireAfter: 5},
		{name: "partition-3+2", partition: [][]int{{0, 1, 2}, {3, 4}}},
		{name: "one-resident-block", residency: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, pcfg := seqs, Config{MicroBatch: mu, MaxContext: 64, ExpertResidencyBytes: tc.residency}
			if tc.partition != nil {
				n = 5
			}
			_, gpu, pinned, cacheArena := newTestArenas()
			pl, err := NewPipeline(w, gpu, pinned, cacheArena, n, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()
			wantSlots := 2 * cfg.Experts
			if tc.residency > 0 {
				wantSlots = 1
			}
			if got := pl.pager.Slots(); got != wantSlots {
				t.Fatalf("residency is %d slots, want %d", got, wantSlots)
			}

			// One snapshot per token index, taken at the index's first
			// sink call: snapshot i+1 minus snapshot i is decode step i.
			type snapshot struct {
				fetched, acquired int64
				load              [][]int64
			}
			var snaps []snapshot
			sink := func(_, index, _ int) {
				if index < len(snaps) {
					return
				}
				ep := &pl.Counters.ExpertPaging
				s := snapshot{fetched: ep.BytesFetched.Load(), acquired: ep.Hits.Load() + ep.Misses.Load()}
				for _, l := range pl.ExpertLoad {
					s.load = append(s.load, append([]int64(nil), l...))
				}
				snaps = append(snaps, s)
			}
			var stop StopFunc
			if tc.retireAfter > 0 {
				stop = func(seq, emitted int) bool { return seq < mu && emitted >= tc.retireAfter }
			}
			got, err := pl.Run(context.Background(), prompts[:n], tc.partition, gen, sink, stop)
			if err != nil {
				t.Fatal(err)
			}
			for s := range got {
				n := gen
				if tc.retireAfter > 0 && s < mu {
					n = tc.retireAfter
				}
				if !reflect.DeepEqual(got[s], want[s][:n]) {
					t.Errorf("seq %d diverges from the reference:\n got %v\nwant %v", s, got[s], want[s][:n])
				}
			}
			if len(snaps) != gen {
				t.Fatalf("%d step snapshots, want %d", len(snaps), gen)
			}

			routed := int64(0) // distinct (layer, expert) pairs routed, summed over the warm steps
			for i := warmFrom; i+1 < len(snaps); i++ {
				for l := range snaps[i].load {
					for e := range snaps[i].load[l] {
						if snaps[i+1].load[l][e] != snaps[i].load[l][e] {
							routed++
						}
					}
				}
			}
			last := snaps[len(snaps)-1]
			if acquired := last.acquired - snaps[warmFrom].acquired; acquired != routed {
				t.Errorf("%d warm steps acquired %d expert blocks for %d routed (layer, expert) pairs, want one visit each",
					len(snaps)-1-warmFrom, acquired, routed)
			}
			fetched := last.fetched - snaps[warmFrom].fetched
			switch {
			case tc.residency > 0:
				if fetched != routed*blockBytes {
					t.Errorf("warm decode on one resident block fetched %d bytes for %d routed blocks of %d bytes, want exactly %d",
						fetched, routed, blockBytes, routed*blockBytes)
				}
			case tc.partition != nil:
				// No byte bound: five rows route to six or seven of a layer's
				// eight experts and the expert shares fetch eight.
			case fetched > routed*blockBytes*115/100:
				t.Errorf("warm decode fetched %d bytes for %d routed blocks of %d bytes: %.2fx, want <= 1.15x",
					fetched, routed, blockBytes, float64(fetched)/float64(routed*blockBytes))
			}
			assertKVIdle(t, pl)
		})
	}
}

// TestSmallWavePrefetchesOnlyRoutableBlocks: a decode layer of r rows
// routes to at most r x TopK experts, so that is all a wave of one or
// two sequences may fetch ahead — not every expert of every layer, which
// the Pin lane would copy beside the GEMMs for the whole wave, most of
// it never read. A count, so it holds at any speed: each decode step's
// expert shares fetch at most r x TopK blocks for each of its layers,
// the last one's for the next step's layer 0, and the shares for the
// first decode step's layer 0 have landed before its first token is
// emitted. Without the limit a step here prefetches up to Layers x
// Experts blocks.
func TestSmallWavePrefetchesOnlyRoutableBlocks(t *testing.T) {
	cfg := streamModel()
	const gen = 10
	cpu := memory.NewArena("cpu", 1<<22)
	w, err := NewRandomWeights(cpu, cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, seqs := range []int{1, 2} {
		prompts := testPrompts(seqs, 5, 12, cfg.VocabSize)
		ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), seqs, 64, kvcache.F32)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Generate(prompts, gen)
		if err != nil {
			t.Fatal(err)
		}
		_, gpu, pinned, cacheArena := newTestArenas()
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, Config{MicroBatch: 1, MaxContext: 64})
		if err != nil {
			t.Fatal(err)
		}
		prefetched := int64(-1) // at the first token: prefill is over, no decode step has run
		got, err := pl.GenerateStream(prompts, gen, func(_, _, _ int) {
			if prefetched < 0 {
				prefetched = pl.Counters.ExpertPaging.Prefetched.Load()
			}
		}, nil)
		pl.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d sequences: tokens diverge from the reference:\n got %v\nwant %v", seqs, got, want)
		}
		decode := pl.Counters.ExpertPaging.Prefetched.Load() - prefetched
		if limit := int64((gen - 1) * cfg.Layers * seqs * cfg.TopK); decode > limit {
			t.Errorf("%d sequences: %d decode steps prefetched %d blocks, want <= %d (%d rows x top-%d per layer)",
				seqs, gen-1, decode, limit, seqs, cfg.TopK)
		}
	}
}

// TestPrefillHandoffEvictsOldestLayerFirst: when the last prompt pass
// reaches the last layer it has the layer before it and the last
// layer's fetched blocks resident; making room for layer 0 — the first
// decode step's, fetched by the last layer's expert shares — must take
// the finished layer's blocks, not the last layer's that are about to be
// used. Every layer's ffn waits for its expert shares and the pass ends
// with the next one's, so the state is the same on every run when Run
// returns. Nothing stages layer 0 between the phases, so this is the
// whole hand-off.
func TestPrefillHandoffEvictsOldestLayerFirst(t *testing.T) {
	cfg := streamModel()
	const seqs = 4
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, Config{MicroBatch: 2, MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	if _, err := pl.Run(context.Background(), testPrompts(seqs, 3, 7, cfg.VocabSize), nil, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	L, E := cfg.Layers, cfg.Experts
	resident := func(layer int) int {
		n := 0
		for e := 0; e < E; e++ {
			if pl.pager.Resident(paging.ExpertKey{Layer: layer, Expert: e}) {
				n++
			}
		}
		return n
	}
	if a, b, c := resident(L-2), resident(L-1), resident(0); a != 0 || b != E || c != E {
		t.Fatalf("after prefill: resident blocks of layers %d / %d / 0 = %d / %d / %d, want 0 / %d / %d",
			L-2, L-1, a, b, c, E, E)
	}
}

// TestPredictExpertsOrderNoAllocs: load descending, ties ascending id,
// and no allocation — it runs on the GPU lane once per layer per step.
func TestPredictExpertsOrderNoAllocs(t *testing.T) {
	cfg := streamModel()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 2, Config{MicroBatch: 2, MaxContext: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	copy(pl.ExpertLoad[1], []int64{3, 7, 7, 0, 9, 3, 0, 7})
	if got, want := pl.predictExperts(1, cfg.Experts), []int{4, 1, 2, 7, 0, 5, 3, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("predicted order %v, want %v", got, want)
	}
	if got, want := pl.predictExperts(1, 3), []int{4, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("top 3 = %v, want %v", got, want)
	}
	if got, want := pl.predictExperts(0, 3), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cold start = %v, want %v (ascending id)", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { pl.predictExperts(1, 5) }); allocs != 0 {
		t.Fatalf("predictExperts allocates %.0f times per call, want 0", allocs)
	}
}

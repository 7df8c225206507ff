package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// TestGenerateStreamEmitsIncrementally: the sink sees every token in
// ascending (index, seq) order, and index 0 arrives exactly when the
// prompt phase is over — every prompt cached and nothing more, before
// any decode step of the wave has run, let alone the final one — even
// for a prompt that ended passes earlier.
//
// The pass count is read off PagesMoved: a pass pages its layers 1 to
// Layers-1 and the next pass's layer 0 (Layers x nb pages, nb the
// micro-batch count, one page each) and the run's first layer 0 is
// primed (nb more), so after P passes it reads nb x (1 + Layers x P).
// At the first sink call P is the prompt passes; at return it adds
// gen - 1 decode steps (index 0 comes from the last prompt pass), however
// many sequences retired along the way. An early token reads fewer pages
// at the first call, an extra pass more at return, and a decode row in a
// prompt pass a cache past its prompt.
func TestGenerateStreamEmitsIncrementally(t *testing.T) {
	cfg := model.Tiny()
	const seqs, gen, nb = 4, 6, 2
	prompts := testPrompts(seqs, 3, 7, cfg.VocabSize) // 3, 4, 5 and 6 tokens
	w, err := NewRandomWeights(memory.NewArena("cpu", 1<<22), cfg, 42)
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
	for _, tc := range []struct {
		name                string
		chunk, promptPasses int
		partition           [][]int
		stopSeq, stopAfter  int // stopSeq retires once it has emitted stopAfter tokens
	}{
		{name: "one prompt pass", promptPasses: 1, stopSeq: -1},
		// Issue order 2, 0, 3, 1 in passes of 5 prompt tokens: 2's five,
		// then 0's three and 3's first two, then 3's last four and 1's
		// first, then 1's last three. Sequence 2's prompt ends in the first
		// pass; its first token waits for the fourth.
		{name: "chunked", chunk: 5, promptPasses: 4, partition: [][]int{{2, 0}, {3, 1}}, stopSeq: 1, stopAfter: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, gpu, pinned, cacheArena := newTestArenas()
			pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, Config{MicroBatch: 2, MaxContext: 64, PrefillChunk: tc.chunk})
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()

			type event struct{ seq, index, token int }
			var events []event
			var cacheLens []int
			pagesAtFirst := int64(-1)
			sink := func(seq, index, token int) {
				if len(events) == 0 {
					pagesAtFirst = pl.Counters.PagesMoved.Load()
					for s := range prompts {
						cacheLens = append(cacheLens, pl.cache.Len(s))
					}
				}
				events = append(events, event{seq, index, token})
			}
			stop := func(seq, emitted int) bool { return seq == tc.stopSeq && emitted >= tc.stopAfter }
			out, err := pl.Run(context.Background(), prompts, tc.partition, gen, sink, stop)
			if err != nil {
				t.Fatal(err)
			}

			var order []event
			for index := 0; index < gen; index++ {
				for s := 0; s < seqs; s++ {
					if s != tc.stopSeq || index < tc.stopAfter {
						order = append(order, event{s, index, 0})
					}
				}
			}
			if len(events) != len(order) {
				t.Fatalf("sink saw %d events, want %d", len(events), len(order))
			}
			for i, e := range events {
				if e.seq != order[i].seq || e.index != order[i].index {
					t.Fatalf("event %d = (seq %d, index %d), want (seq %d, index %d)",
						i, e.seq, e.index, order[i].seq, order[i].index)
				}
				if out[e.seq][e.index] != e.token || e.token != want[e.seq][e.index] {
					t.Fatalf("event %d token %d: output %d, reference %d", i, e.token, out[e.seq][e.index], want[e.seq][e.index])
				}
			}
			for s, n := range cacheLens {
				if n != len(prompts[s]) {
					t.Errorf("seq %d: first token emitted at cache len %d, want prompt len %d", s, n, len(prompts[s]))
				}
			}
			layers := int64(cfg.Layers)
			if want := nb * (1 + layers*int64(tc.promptPasses)); pagesAtFirst != want {
				t.Errorf("first token after %d pages moved, want %d (%d prompt passes)", pagesAtFirst, want, tc.promptPasses)
			}
			if got, want := pl.Counters.PagesMoved.Load(), nb*(1+layers*int64(tc.promptPasses+gen-1)); got != want {
				t.Errorf("%d pages moved by the run's end, want %d (%d prompt passes + %d decode steps)", got, want, tc.promptPasses, gen-1)
			}
			assertKVIdle(t, pl)
		})
	}
}

// TestStopRetiresSequenceAndFreesKV: stopping one sequence
// mid-generation releases its KV blocks back to the pool, truncates its
// output, and leaves every other sequence's tokens bit-identical to the
// sequential reference.
func TestStopRetiresSequenceAndFreesKV(t *testing.T) {
	cfg := model.Tiny()
	const seqs, gen, stopSeq, stopAfter = 5, 8, 1, 3
	prompts := testPrompts(seqs, 3, 8, cfg.VocabSize)

	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 17)
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

	pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, Config{MicroBatch: 2, MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	stop := func(seq, emitted int) bool { return seq == stopSeq && emitted >= stopAfter }
	got, err := pl.GenerateStream(prompts, gen, nil, stop)
	if err != nil {
		t.Fatal(err)
	}

	for s := 0; s < seqs; s++ {
		if s == stopSeq {
			if !reflect.DeepEqual(got[s], want[s][:stopAfter]) {
				t.Errorf("retired seq %d: got %v, want prefix %v", s, got[s], want[s][:stopAfter])
			}
			continue
		}
		if !reflect.DeepEqual(got[s], want[s]) {
			t.Errorf("surviving seq %d diverged after a batch-mate retired:\n got %v\nwant %v", s, got[s], want[s])
		}
	}
	if n := pl.cache.Len(stopSeq); n != 0 {
		t.Errorf("retired sequence still holds %d cached tokens", n)
	}
	if free := pl.cache.FreeBlocks(); free == 0 {
		t.Error("retirement returned no KV blocks to the pool")
	}
	assertKVIdle(t, pl)
}

// TestServerAdmitsAcrossWaves: the open-queue server serves requests
// submitted at different times, re-batching at wave boundaries, and
// every output matches the sequential reference.
func TestServerAdmitsAcrossWaves(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	const genLen = 4
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 128},
		NumMicroBatches: 2, GenLen: genLen,
	})
	if err != nil {
		t.Fatal(err)
	}

	queue := serveQueue(6)
	first, err := srv.SubmitBatch(context.Background(), queue[:4])
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first group before submitting the rest, forcing a
	// later wave to admit the new arrivals.
	for _, h := range first {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	second, err := srv.SubmitBatch(context.Background(), queue[4:])
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	prompts := PromptsFromRequests(queue, cfg.VocabSize)
	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), len(queue), 64, kvcache.F32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, genLen)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range append(first, second...) {
		got, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("request %d: got %v, want %v", h.ID(), got, want[i])
		}
	}
	st := srv.Stats()
	if st.Waves < 2 {
		t.Errorf("two submit groups should need >= 2 waves, got %d", st.Waves)
	}
	if st.Completed != len(queue) || st.Submitted != len(queue) {
		t.Errorf("stats: %+v", st)
	}
	if st.GeneratedTokens != len(queue)*genLen || st.TokensPerSecond <= 0 {
		t.Errorf("token accounting: %+v", st)
	}
	if st.KVLeaks != 0 {
		t.Errorf("end-of-wave KV audit found %d leaking waves", st.KVLeaks)
	}
}

// TestStatsCoverRequestsThatFinished: a client that has returned from
// Wait on its requests reads Stats that count every one of them — the
// outcome is folded before the handle's waiters wake, not after. With
// the fold after the wake, the last handle's Wait returned while its
// Completed / GeneratedTokens were still to be added: under the race
// detector this loop read a request short within its first ten rounds.
func TestStatsCoverRequestsThatFinished(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const genLen, perRound, rounds = 4, 4, 200 // serveQueue's requests ask for 4 tokens
	srv := newSLOTestServer(t, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 128},
		NumMicroBatches: 2, GenLen: genLen,
	})
	defer srv.Close()
	for round := 1; round <= rounds; round++ {
		hs, err := srv.SubmitBatch(context.Background(), serveQueue(perRound))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			if _, err := h.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		st := srv.Stats()
		if st.Completed != perRound*round || st.GeneratedTokens != perRound*round*genLen {
			t.Fatalf("round %d: every handle has finished, Stats read %d completed / %d tokens, want %d / %d",
				round, st.Completed, st.GeneratedTokens, perRound*round, perRound*round*genLen)
		}
	}
}

// TestServerCanceledWhileQueued: a request whose context is already
// canceled is reaped at the wave boundary without computing.
func TestServerCanceledWhileQueued(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 64},
		NumMicroBatches: 1, GenLen: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	h, err := srv.Submit(canceled, workload.Request{ID: 7, PromptLen: 4, GenLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	tokens, herr := h.Wait()
	if !errors.Is(herr, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", herr)
	}
	if len(tokens) != 0 {
		t.Errorf("queued-canceled request produced tokens: %v", tokens)
	}
	if st := srv.Stats(); st.Canceled != 1 || st.Waves != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestServerNoProgressGuard pins that the wave core has no no-progress
// guard: without TTFT targets, a short request that Alg. 2's length sort
// passes over in two consecutive waves, each time behind a longer
// arrival, stays queued and is placed at the first wave with room, with
// the reference's tokens.
func TestServerNoProgressGuard(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	// One micro-batch of one request per wave: the longest prompt is
	// always placed and everything else deferred.
	// The loop stays idle (nothing is submitted): the test drives the
	// wave core on its own goroutine.
	s, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 1, MaxContext: 64},
		NumMicroBatches: 1, GenLen: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	shortReq := workload.Request{ID: 1, PromptLen: 5, GenLen: 2}
	short := newHandle(shortReq, nil, 2, SLO{})
	pending := []*Handle{short}
	for wave := 1; wave <= 2; wave++ {
		big := newHandle(workload.Request{ID: 1 + wave, PromptLen: 9, GenLen: 2}, nil, 2, SLO{})
		pending = s.runWave(append(pending, big))
		if len(pending) != 1 || pending[0] != short {
			t.Fatalf("wave %d should defer the short request, got %v (short: %v)", wave, pending, short.Err())
		}
		if _, err := big.Wait(); err != nil {
			t.Fatalf("wave %d placed request failed: %v", wave, err)
		}
	}

	// Nothing longer arrives: the third wave has room for it.
	if pending = s.runWave(pending); len(pending) != 0 {
		t.Fatalf("wave 3 should place the short request, deferred %d", len(pending))
	}
	got, err := short.Wait()
	if err != nil {
		t.Fatalf("deferred request: %v", err)
	}
	if want := refTokens(t, w, []workload.Request{shortReq}, 64, 2); !reflect.DeepEqual(got, want[0]) {
		t.Errorf("deferred request: got %v, want %v", got, want[0])
	}
	if st := s.Stats(); st.Failed != 0 || st.Completed != 3 || st.MaxDeferrals != 2 {
		t.Errorf("stats: %+v", st)
	}
}

// TestServerSubmitCloseRace: a Submit racing Close either returns
// ErrServerClosed or its handles finish — accepted batches are never
// stranded, and Close never hangs.
func TestServerSubmitCloseRace(t *testing.T) {
	cfg := model.Tiny()
	for iter := 0; iter < 20; iter++ {
		cpu, gpu, pinned, cacheArena := newTestArenas()
		w, err := NewRandomWeights(cpu, cfg, int64(iter))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
			Config:          Config{MicroBatch: 2, MaxContext: 64},
			NumMicroBatches: 2, GenLen: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			h   *Handle
			err error
		}
		results := make(chan result, 4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				h, err := srv.Submit(context.Background(), workload.Request{ID: g + 1, PromptLen: 3, GenLen: 2})
				results <- result{h, err}
			}(g)
		}
		closed := make(chan struct{})
		go func() { srv.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatal("Close hung")
		}
		wg.Wait()
		close(results)
		for r := range results {
			if r.err != nil {
				if !errors.Is(r.err, ErrServerClosed) {
					t.Fatalf("unexpected submit error: %v", r.err)
				}
				continue
			}
			finished := make(chan struct{})
			go func(h *Handle) { h.Wait(); close(finished) }(r.h)
			select {
			case <-finished:
			case <-time.After(30 * time.Second):
				t.Fatal("accepted handle stranded after Close")
			}
		}
	}
}

// TestServerHonorsRequestGenLen: a request shorter than the wave ends
// at its own GenLen — its tokens are the reference prefix —
// while full-length batch-mates are untouched.
func TestServerHonorsRequestGenLen(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 23)
	if err != nil {
		t.Fatal(err)
	}
	const waveGen = 6
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 128},
		NumMicroBatches: 1, GenLen: waveGen,
	})
	if err != nil {
		t.Fatal(err)
	}
	queue := []workload.Request{
		{ID: 1, PromptLen: 5, GenLen: 2}, // ends early
		{ID: 2, PromptLen: 6, GenLen: waveGen},
	}
	hs, err := srv.SubmitBatch(context.Background(), queue)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	prompts := PromptsFromRequests(queue, cfg.VocabSize)
	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), len(queue), 64, kvcache.F32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, waveGen)
	if err != nil {
		t.Fatal(err)
	}
	short, err := hs[0].Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(short, want[0][:2]) {
		t.Errorf("short request: got %v, want %v", short, want[0][:2])
	}
	full, err := hs[1].Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, want[1]) {
		t.Errorf("full request diverged next to an early-finishing batch-mate:\n got %v\nwant %v", full, want[1])
	}
}

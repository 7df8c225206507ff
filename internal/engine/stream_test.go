package engine

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// TestGenerateStreamEmitsIncrementally: the sink sees every token in
// ascending (index, seq) order, and the first token arrives while the
// KV cache is still at prompt length — i.e. before any decode step of
// the wave has run, let alone the final one.
func TestGenerateStreamEmitsIncrementally(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	const seqs, gen = 4, 6
	prompts := testPrompts(seqs, 3, 7, cfg.VocabSize)

	pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, Config{MicroBatch: 2, MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	type event struct{ seq, index, token int }
	var events []event
	cacheLenAtFirst := -1
	sink := func(seq, index, token int) {
		if len(events) == 0 {
			cacheLenAtFirst = pl.cache.Len(seq)
		}
		events = append(events, event{seq, index, token})
	}
	out, err := pl.GenerateStream(prompts, gen, sink, nil)
	if err != nil {
		t.Fatal(err)
	}

	if len(events) != seqs*gen {
		t.Fatalf("sink saw %d events, want %d", len(events), seqs*gen)
	}
	for i, e := range events {
		wantSeq, wantIndex := i%seqs, i/seqs
		if e.seq != wantSeq || e.index != wantIndex {
			t.Fatalf("event %d = (seq %d, index %d), want (seq %d, index %d)",
				i, e.seq, e.index, wantSeq, wantIndex)
		}
		if out[e.seq][e.index] != e.token {
			t.Fatalf("event %d token %d != output %d", i, e.token, out[e.seq][e.index])
		}
	}
	// The first sequence's final context is prompt + gen - 1 appended
	// tokens; at first emission it must still be at prompt length.
	finalLen := len(prompts[events[0].seq]) + gen - 1
	if cacheLenAtFirst != len(prompts[events[0].seq]) {
		t.Errorf("first token emitted at cache len %d, want prompt len %d (final %d)",
			cacheLenAtFirst, len(prompts[events[0].seq]), finalLen)
	}
	assertKVIdle(t, pl)
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
	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), seqs, 64)
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
		Config:          Config{MicroBatch: 2, MaxContext: 32},
		NumMicroBatches: 2, GenLen: genLen, CacheTokens: 256,
	})
	if err != nil {
		t.Fatal(err)
	}

	queue := serveQueue(6)
	first, err := srv.SubmitBatch(queue[:4], nil)
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
	second, err := srv.SubmitBatch(queue[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	prompts := PromptsFromRequests(queue, cfg.VocabSize)
	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), len(queue), 64)
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
		Config:          Config{MicroBatch: 2, MaxContext: 32},
		NumMicroBatches: 2, GenLen: genLen, CacheTokens: 256,
	})
	defer srv.Close()
	for round := 1; round <= rounds; round++ {
		hs, err := srv.SubmitBatch(serveQueue(perRound), nil)
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

// TestServerCanceledWhileQueued: a request whose cancel channel is
// already closed is reaped at the wave boundary without computing.
func TestServerCanceledWhileQueued(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 32},
		NumMicroBatches: 1, GenLen: 3, CacheTokens: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	canceled := make(chan struct{})
	close(canceled)
	h, err := srv.Submit(workload.Request{ID: 7, PromptLen: 4, GenLen: 3}, canceled)
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

// TestServerNoProgressGuard exercises the starvation guard directly on
// the wave core: a request the batcher aborts in two consecutive waves
// (while other requests keep it from the "cannot fit any micro-batch"
// error) fails with ErrNoProgress instead of deferring forever.
func TestServerNoProgressGuard(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	// One micro-batch of one request per wave: the longest prompt is
	// always placed and everything else aborted.
	s := &Server{
		host: &Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena},
		cfg: ServeConfig{
			Config:          Config{MicroBatch: 1, MaxContext: 64},
			NumMicroBatches: 1, GenLen: 2, CacheTokens: 64, Vocab: cfg.VocabSize,
		},
	}
	starved := newHandle(workload.Request{ID: 1, PromptLen: 5, GenLen: 2}, nil, 2, SLO{})
	big1 := newHandle(workload.Request{ID: 2, PromptLen: 9, GenLen: 2}, nil, 2, SLO{})
	big2 := newHandle(workload.Request{ID: 3, PromptLen: 9, GenLen: 2}, nil, 2, SLO{})

	pending := s.runWave([]*Handle{starved, big1})
	if len(pending) != 1 || pending[0] != starved {
		t.Fatalf("wave 1 should defer the short request, got %v", pending)
	}
	if _, err := big1.Wait(); err != nil {
		t.Fatalf("wave 1 placed request failed: %v", err)
	}

	// A new long arrival starves the deferred request a second time.
	pending = s.runWave(append(pending, big2))
	if len(pending) != 0 {
		t.Fatalf("wave 2 should not defer anything, got %d", len(pending))
	}
	if _, err := big2.Wait(); err != nil {
		t.Fatalf("wave 2 placed request failed: %v", err)
	}
	if _, err := starved.Wait(); !errors.Is(err, ErrNoProgress) {
		t.Fatalf("starved request: want ErrNoProgress, got %v", err)
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 2 {
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
			Config:          Config{MicroBatch: 2, MaxContext: 16},
			NumMicroBatches: 2, GenLen: 2, CacheTokens: 128,
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
				h, err := srv.Submit(workload.Request{ID: g + 1, PromptLen: 3, GenLen: 2}, nil)
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

// TestServerHonorsRequestGenLen: with HonorRequestGenLen a short
// request ends at its own GenLen — its tokens are the reference prefix —
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
		Config:          Config{MicroBatch: 2, MaxContext: 64},
		NumMicroBatches: 1, GenLen: waveGen, CacheTokens: 256, HonorRequestGenLen: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	queue := []workload.Request{
		{ID: 1, PromptLen: 5, GenLen: 2}, // ends early
		{ID: 2, PromptLen: 6, GenLen: waveGen},
	}
	hs, err := srv.SubmitBatch(queue, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	prompts := PromptsFromRequests(queue, cfg.VocabSize)
	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), len(queue), 64)
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

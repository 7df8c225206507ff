package engine

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"moelightning/internal/faults"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/tensor"
	"moelightning/internal/workload"
)

// assertKVIdle is the end-of-wave audit as a test helper: every
// sequence released and the block pool fully free (kvcache.CheckIdle).
func assertKVIdle(t *testing.T, pl *Pipeline) {
	t.Helper()
	pl.ReleaseAll()
	if err := pl.KVIdle(); err != nil {
		t.Errorf("KV pool not idle after the wave: %v", err)
	}
}

// stallGate builds an injector that blocks the wave at its first stall
// point (prefill layer 0) until release is called; reached closes when
// the wave arrives at the stall. Deterministic hold-at-boundary control
// for tests that need the server's queue state frozen mid-wave.
func stallGate() (inj *faults.Injector, reached <-chan struct{}, release func()) {
	gate := make(chan struct{})
	r := make(chan struct{})
	var reachOnce, relOnce sync.Once
	inj = faults.New(faults.Config{
		StallEvery: 1,
		Gate:       gate,
		OnStall:    func() { reachOnce.Do(func() { close(r) }) },
	})
	return inj, r, func() { relOnce.Do(func() { close(gate) }) }
}

func waitCh(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// refTokens replays reqs through the sequential oracle.
func refTokens(t *testing.T, w *Weights, reqs []workload.Request, maxContext, genLen int) [][]int {
	t.Helper()
	prompts := PromptsFromRequests(reqs, w.Cfg.VocabSize)
	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), len(reqs), maxContext)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, genLen)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestServerShedsAtRequestBound: with the wave held at a stall and
// MaxQueuedRequests 2, the third queued arrival fails fast with
// ErrOverloaded — naming the refused request — while the two admitted
// ones (and the in-flight wave) complete normally once released.
func TestServerShedsAtRequestBound(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	inj, reached, release := stallGate()
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 1, MaxContext: 32, Faults: inj},
		AdmissionPolicy: AdmissionPolicy{MaxQueuedRequests: 2},
		NumMicroBatches: 1, GenLen: 2, CacheTokens: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Submit(workload.Request{ID: 1, PromptLen: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The wave dispatches A (dequeuing it) and parks at the stall: the
	// queue bound is now exercised purely by the arrivals below.
	waitCh(t, reached, "wave to reach the stall point")
	b, err := srv.Submit(workload.Request{ID: 2, PromptLen: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.Submit(workload.Request{ID: 3, PromptLen: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.QueuedRequests != 2 || st.QueuedTokens != (5+2)+(6+2) {
		t.Errorf("queue ledger: %d requests / %d tokens, want 2 / 15", st.QueuedRequests, st.QueuedTokens)
	}
	_, derr := srv.Submit(workload.Request{ID: 4, PromptLen: 4}, nil)
	if !errors.Is(derr, ErrOverloaded) {
		t.Fatalf("overflow submit: want ErrOverloaded, got %v", derr)
	}
	if !strings.Contains(derr.Error(), "id 4") || !strings.Contains(derr.Error(), "MaxQueuedRequests") {
		t.Errorf("shed error does not name the request and bound: %v", derr)
	}
	release()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, h := range []*Handle{a, b, c} {
		if _, herr := h.Wait(); herr != nil {
			t.Errorf("admitted request %d failed: %v", h.ID(), herr)
		}
	}
	st := srv.Stats()
	if st.Shed != 1 || st.Submitted != 3 || st.Completed != 3 {
		t.Errorf("stats: shed %d submitted %d completed %d, want 1/3/3", st.Shed, st.Submitted, st.Completed)
	}
	if st.KVLeaks != 0 || st.QueuedRequests != 0 || st.QueuedTokens != 0 {
		t.Errorf("post-drain state: %+v", st)
	}
}

// TestServerShedsAtTokenBound: MaxQueuedTokens rejects a request whose
// prompt+gen demand alone exceeds the bound, before anything queues.
func TestServerShedsAtTokenBound(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 1, MaxContext: 32},
		AdmissionPolicy: AdmissionPolicy{MaxQueuedTokens: 10},
		NumMicroBatches: 1, GenLen: 4, CacheTokens: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, derr := srv.Submit(workload.Request{ID: 9, PromptLen: 20}, nil)
	if !errors.Is(derr, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", derr)
	}
	if !strings.Contains(derr.Error(), "MaxQueuedTokens") || !strings.Contains(derr.Error(), "id 9") {
		t.Errorf("shed error does not name the bound and request: %v", derr)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := srv.Stats(); st.Shed != 1 || st.Submitted != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestServerDropsExpiredTTFTDeadline: a request whose TTFT budget
// expires while queued behind a held wave is failed with
// ErrDeadlineExceeded at the wave boundary — before any prefill is
// spent on it — while the unbudgeted wave completes untouched.
func TestServerDropsExpiredTTFTDeadline(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 33)
	if err != nil {
		t.Fatal(err)
	}
	inj, reached, release := stallGate()
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 1, MaxContext: 32, Faults: inj},
		NumMicroBatches: 1, GenLen: 3, CacheTokens: 64, EnforceDeadlines: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Submit(workload.Request{ID: 1, PromptLen: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitCh(t, reached, "wave to reach the stall point")
	b, err := srv.SubmitSLO(workload.Request{ID: 2, PromptLen: 5}, SLO{TTFT: 2 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // blow B's budget while the wave is held
	release()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, aerr := a.Wait(); aerr != nil {
		t.Errorf("unbudgeted wave request failed: %v", aerr)
	}
	toks, berr := b.Wait()
	if !errors.Is(berr, ErrDeadlineExceeded) {
		t.Fatalf("expired request: want ErrDeadlineExceeded, got %v", berr)
	}
	if len(toks) != 0 {
		t.Errorf("deadline-dropped request produced tokens: %v", toks)
	}
	st := srv.Stats()
	if st.DeadlineDropped != 1 || st.Failed != 1 || st.Completed != 1 {
		t.Errorf("stats: dropped %d failed %d completed %d, want 1/1/1", st.DeadlineDropped, st.Failed, st.Completed)
	}
}

// TestTPOTGuardRetiresHopelessSequence: under the TPOT guard a decoding
// sequence whose elapsed span already exceeds its whole-generation TPOT
// budget is retired through the stop path — keeping the tokens it
// produced (a bit-exact reference prefix) — while its wave-mate runs to
// completion bit-identical to the oracle.
func TestTPOTGuardRetiresHopelessSequence(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 34)
	if err != nil {
		t.Fatal(err)
	}
	const genLen = 6
	// Per-step stalls make real time pass between decode boundaries, so
	// the 1ns budget below is provably blown by the second token.
	inj := faults.New(faults.Config{StallEvery: 1, StallFor: 2 * time.Millisecond})
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 32, Faults: inj},
		NumMicroBatches: 1, GenLen: genLen, CacheTokens: 128, TPOTGuard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []workload.Request{
		{ID: 1, PromptLen: 5},
		{ID: 2, PromptLen: 6},
	}
	hs, err := srv.SubmitBatchSLO(reqs, []SLO{{TPOT: time.Nanosecond}, {}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := refTokens(t, w, reqs, 64, genLen)
	gotA, aerr := hs[0].Wait()
	if !errors.Is(aerr, ErrDeadlineExceeded) {
		t.Fatalf("hopeless request: want ErrDeadlineExceeded, got %v", aerr)
	}
	if len(gotA) < 2 || len(gotA) >= genLen {
		t.Fatalf("hopeless request emitted %d tokens, want >= 2 and < %d", len(gotA), genLen)
	}
	if !reflect.DeepEqual(gotA, want[0][:len(gotA)]) {
		t.Errorf("retired tokens not a reference prefix: got %v, want %v", gotA, want[0][:len(gotA)])
	}
	gotB, berr := hs[1].Wait()
	if berr != nil {
		t.Fatalf("wave-mate failed: %v", berr)
	}
	if !reflect.DeepEqual(gotB, want[1]) {
		t.Errorf("wave-mate diverged after TPOT retirement:\n got %v\nwant %v", gotB, want[1])
	}
	st := srv.Stats()
	if st.DeadlineDropped != 1 || st.Failed != 1 || st.Completed != 1 || st.KVLeaks != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestWaveWatchdogFailsStalledWave: a wave stalled indefinitely at a
// boundary is cut loose by the watchdog through the cooperative abort —
// its request fails with ErrWaveStalled, the KV audit stays clean, and
// Close returns (with the wave error) instead of hanging.
func TestWaveWatchdogFailsStalledWave(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 35)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{}) // never closed: the stall never ends on its own
	inj := faults.New(faults.Config{StallEvery: 1, Gate: gate})
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 1, MaxContext: 32, Faults: inj},
		NumMicroBatches: 1, GenLen: 2, CacheTokens: 64, WaveTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := srv.Submit(workload.Request{ID: 1, PromptLen: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, herr := h.Wait(); !errors.Is(herr, ErrWaveStalled) {
		t.Fatalf("stalled wave request: want ErrWaveStalled, got %v", herr)
	}
	if cerr := srv.Close(); !errors.Is(cerr, ErrWaveStalled) {
		t.Fatalf("Close: want ErrWaveStalled, got %v", cerr)
	}
	st := srv.Stats()
	if st.WaveTimeouts != 1 || st.Failed != 1 || st.KVLeaks != 0 {
		t.Errorf("stats: timeouts %d failed %d leaks %d, want 1/1/0", st.WaveTimeouts, st.Failed, st.KVLeaks)
	}
	// The failed wave held the engine until the watchdog fired: that is
	// busy time, or TokensPerSecond and the SLO-aware drain projection
	// overstate the rate after any failed wave.
	srv.mu.Lock()
	busy := srv.busy
	srv.mu.Unlock()
	if busy < 50*time.Millisecond {
		t.Errorf("busy time %v after a wave that ran into its 50ms watchdog", busy)
	}
}

// TestPipelineAbsorbsTransientFetchFaults: expert-fetch faults within
// the pager's retry budget are invisible — the output is bit-identical
// to the reference and only the retry counter records the event.
func TestPipelineAbsorbsTransientFetchFaults(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 36)
	if err != nil {
		t.Fatal(err)
	}
	const seqs, genLen = 2, 4
	reqs := []workload.Request{{ID: 1, PromptLen: 5}, {ID: 2, PromptLen: 7}}
	prompts := PromptsFromRequests(reqs, cfg.VocabSize)
	want := refTokens(t, w, reqs, 64, genLen)

	// Rate 1 capped at 3 total faults: the first fetch absorbs all three
	// inside its 4-retry budget, then the injector heals.
	inj := faults.New(faults.Config{Seed: 1, ExpertFetchRate: 1, ExpertFetchMax: 3})
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, Config{MicroBatch: 2, MaxContext: 64, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, err := pl.Generate(prompts, genLen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("transient faults changed output:\n got %v\nwant %v", got, want)
	}
	for s := 0; s < seqs; s++ {
		if serr := pl.SeqErr(s); serr != nil {
			t.Errorf("seq %d failed under transient faults: %v", s, serr)
		}
	}
	if n := pl.Counters.ExpertPaging.FetchRetries.Load(); n != 3 {
		t.Errorf("FetchRetries = %d, want 3", n)
	}
	if n := pl.Counters.ExpertPaging.FetchFailures.Load(); n != 0 {
		t.Errorf("FetchFailures = %d, want 0", n)
	}
	assertKVIdle(t, pl)
}

// TestPipelinePermanentFetchFailureRetiresAll: with every fetch attempt
// failing, every sequence is retired during prefill with an
// ErrInjected-rooted error, no tokens are emitted, and the KV pool
// still drains to idle — the failure never wedges or leaks.
func TestPipelinePermanentFetchFailureRetiresAll(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 38)
	if err != nil {
		t.Fatal(err)
	}
	const seqs = 2
	prompts := testPrompts(seqs, 4, 8, cfg.VocabSize)
	inj := faults.New(faults.Config{Seed: 2, ExpertFetchRate: 1}) // unlimited faults
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, Config{MicroBatch: 2, MaxContext: 64, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, err := pl.Generate(prompts, 4)
	if err != nil {
		t.Fatalf("all-retired wave should not fail the wave itself: %v", err)
	}
	for s := 0; s < seqs; s++ {
		serr := pl.SeqErr(s)
		if !errors.Is(serr, faults.ErrInjected) {
			t.Errorf("seq %d: want ErrInjected-rooted retirement, got %v", s, serr)
		}
		if len(got[s]) != 0 {
			t.Errorf("seq %d emitted tokens after prefill retirement: %v", s, got[s])
		}
	}
	if n := pl.Counters.ExpertPaging.FetchFailures.Load(); n == 0 {
		t.Error("no fetch failures recorded under a permanent fault")
	}
	assertKVIdle(t, pl)
}

// failingExperts is an expertSource whose one expert cannot be fetched.
type failingExperts struct {
	expertSource
	expert int
	err    error
}

func (f failingExperts) Acquire(e int) (gate, up, down tensor.Mat, err error) {
	if e == f.expert {
		return tensor.Mat{}, tensor.Mat{}, tensor.Mat{}, f.err
	}
	return f.expertSource.Acquire(e)
}

// TestDecodeFetchFailureRetiresRoutedAcrossMicroBatches: ffn(l) serves
// the rows of every micro-batch from one acquisition per expert, so an
// expert that cannot be fetched in one decode layer fails exactly the
// sequences routed to it there — whichever micro-batches they sit in —
// with the tokens they had, and every other sequence finishes with the
// reference's tokens. A clean run of the same wave says who is routed
// where; the failing run must retire those sequences and no others.
func TestDecodeFetchFailureRetiresRoutedAcrossMicroBatches(t *testing.T) {
	cfg := streamModel()
	const seqs, mu, gen = 8, 2, 7
	const failStep, failLayer = 2, 3 // decode step 2 produces token index 3
	cpu := memory.NewArena("cpu", 1<<22)
	w, err := NewRandomWeights(cpu, cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	prompts := testPrompts(seqs, 3, 9, cfg.VocabSize)
	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), seqs, 64)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, gen)
	if err != nil {
		t.Fatal(err)
	}
	errFetch := errors.New("injected: block unavailable")

	// run generates the wave; at (failStep, failLayer) it records each
	// sequence's routed experts and, with failExpert >= 0, fails that
	// expert's acquisition.
	run := func(failExpert int) (pl *Pipeline, got [][]int, routedAt [][]int) {
		_, gpu, pinned, cacheArena := newTestArenas()
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, Config{MicroBatch: mu, MaxContext: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pl.Close)
		decodeCalls := -1 // ffn calls since prefill ended; the first sink call arms it
		pl.kern.ffn = func(layout Layout, experts expertSource, x tensor.Mat, scratch *ffnScratch) [][]int {
			if decodeCalls < 0 {
				return expertFFN(layout, experts, x, scratch)
			}
			step, layer := decodeCalls/cfg.Layers, decodeCalls%cfg.Layers
			decodeCalls++
			if step != failStep || layer != failLayer {
				return expertFFN(layout, experts, x, scratch)
			}
			if failExpert >= 0 {
				experts = failingExperts{experts, failExpert, errFetch}
			}
			chosen := expertFFN(layout, experts, x, scratch)
			routedAt = make([][]int, seqs)
			for r, s := range pl.rowSeq[:len(chosen)] {
				routedAt[s] = append([]int(nil), chosen[r]...)
			}
			return chosen
		}
		got, err = pl.GenerateStream(prompts, gen, func(_, _, _ int) {
			if decodeCalls < 0 {
				decodeCalls = 0
			}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pl, got, routedAt
	}

	clean, got, routedAt := run(-1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clean run diverges from the reference:\n got %v\nwant %v", got, want)
	}
	// Fail the expert most sequences route to at that layer.
	rowsOf := make([]int, cfg.Experts)
	for _, experts := range routedAt {
		for _, e := range experts {
			rowsOf[e]++
		}
	}
	failExpert := 0
	for e, n := range rowsOf {
		if n > rowsOf[failExpert] {
			failExpert = e
		}
	}
	routed := make([]bool, seqs)
	mbsHit := map[int]bool{}
	for s, experts := range routedAt {
		for _, e := range experts {
			if e == failExpert {
				routed[s] = true
				mbsHit[s/mu] = true
			}
		}
	}
	if len(mbsHit) < 2 || rowsOf[failExpert] == seqs {
		t.Fatalf("setup: expert %d is routed by %d of %d sequences in %d micro-batches; want some, not all, across micro-batches",
			failExpert, rowsOf[failExpert], seqs, len(mbsHit))
	}
	assertKVIdle(t, clean)

	pl, got, _ := run(failExpert)
	for s := 0; s < seqs; s++ {
		serr := pl.SeqErr(s)
		if routed[s] {
			if !errors.Is(serr, errFetch) {
				t.Errorf("seq %d routed to the failed expert: error %v, want the fetch error", s, serr)
			}
			// Retired at the boundary after the failing step: the token of
			// index failStep+1 never came.
			if !reflect.DeepEqual(got[s], want[s][:failStep+1]) {
				t.Errorf("seq %d (retired): tokens %v, want the reference's first %d %v", s, got[s], failStep+1, want[s][:failStep+1])
			}
			continue
		}
		if serr != nil {
			t.Errorf("seq %d not routed to the failed expert retired: %v", s, serr)
		}
		if !reflect.DeepEqual(got[s], want[s]) {
			t.Errorf("seq %d (survivor) diverges from the reference:\n got %v\nwant %v", s, got[s], want[s])
		}
	}
	assertKVIdle(t, pl)
}

// TestServerForcedKVExhaustionFailsOnlyVictim: a forced allocation
// failure on a chosen ordinal behaves exactly like pool exhaustion —
// one request fails with ErrOutOfBlocks, its wave-mates complete
// bit-identical to the oracle, and no blocks leak.
func TestServerForcedKVExhaustionFailsOnlyVictim(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 39)
	if err != nil {
		t.Fatal(err)
	}
	const genLen = 3
	inj := faults.New(faults.Config{KVAllocFailAt: []int{5}})
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 3, MaxContext: 16, Faults: inj},
		NumMicroBatches: 1, GenLen: genLen, CacheTokens: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []workload.Request{
		{ID: 1, PromptLen: 6},
		{ID: 2, PromptLen: 7},
		{ID: 3, PromptLen: 8},
	}
	hs, err := srv.SubmitBatch(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := refTokens(t, w, reqs, 64, genLen)
	failed := 0
	for i, h := range hs {
		got, herr := h.Wait()
		if herr != nil {
			if !errors.Is(herr, kvcache.ErrOutOfBlocks) {
				t.Errorf("request %d: want ErrOutOfBlocks, got %v", h.ID(), herr)
			}
			failed++
			continue
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("survivor %d diverged:\n got %v\nwant %v", h.ID(), got, want[i])
		}
	}
	if failed != 1 {
		t.Errorf("%d requests failed, want exactly the forced-exhaustion victim", failed)
	}
	st := srv.Stats()
	if st.Failed != 1 || st.Completed != 2 || st.KVLeaks != 0 {
		t.Errorf("stats: %+v", st)
	}
	if s := inj.Stats(); s.KVAllocFaults != 1 {
		t.Errorf("injector fired %d KV faults, want 1", s.KVAllocFaults)
	}
}

// TestCancelMidPrefillPreservesSharedPrefix: canceling the donor of a
// shared prompt prefix mid-wave must not strand its wave-mate — the
// follower keeps the mapped prefix blocks (refcounted) and completes
// bit-identical to the oracle, and the wave's KV audit stays clean.
func TestCancelMidPrefillPreservesSharedPrefix(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 37)
	if err != nil {
		t.Fatal(err)
	}
	const genLen = 4
	inj, reached, release := stallGate()
	s := &Server{
		host: &Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena},
		cfg: ServeConfig{
			Config:          Config{MicroBatch: 2, MaxContext: 64, SharedPrefix: true, Faults: inj},
			NumMicroBatches: 1, GenLen: genLen, CacheTokens: 200, Vocab: cfg.VocabSize,
		},
	}
	reqA := workload.Request{ID: 1, PromptLen: 20, PrefixID: 7, PrefixLen: 16}
	reqB := workload.Request{ID: 2, PromptLen: 21, PrefixID: 7, PrefixLen: 16}
	cancelA := make(chan struct{})
	hA := newHandle(reqA, cancelA, genLen, SLO{})
	hB := newHandle(reqB, nil, genLen, SLO{})
	// Cancel the donor while its wave sits at the prefill stall: the
	// cancellation lands at the first decode boundary, after B has
	// already attached A's prefix blocks.
	go func() {
		<-reached
		close(cancelA)
		release()
	}()
	pending := s.runWave([]*Handle{hA, hB})
	if len(pending) != 0 {
		t.Fatalf("wave deferred %d handles, want 0", len(pending))
	}
	want := refTokens(t, w, []workload.Request{reqA, reqB}, 64, genLen)
	gotA, aerr := hA.Wait()
	if !errors.Is(aerr, ErrCanceled) {
		t.Fatalf("donor: want ErrCanceled, got %v", aerr)
	}
	if len(gotA) >= genLen {
		t.Errorf("canceled donor ran to completion: %v", gotA)
	}
	if !reflect.DeepEqual(gotA, want[0][:len(gotA)]) {
		t.Errorf("donor's partial tokens not a reference prefix: got %v", gotA)
	}
	gotB, berr := hB.Wait()
	if berr != nil {
		t.Fatalf("follower failed after donor cancel: %v", berr)
	}
	if !reflect.DeepEqual(gotB, want[1]) {
		t.Errorf("follower diverged after donor cancel:\n got %v\nwant %v", gotB, want[1])
	}
	st := s.Stats()
	if st.PrefixHitTokens < 16 {
		t.Errorf("prefix hits = %d, want >= 16 (the follower's mapped block)", st.PrefixHitTokens)
	}
	if st.Canceled != 1 || st.Completed != 1 || st.KVLeaks != 0 {
		t.Errorf("stats: %+v", st)
	}
}

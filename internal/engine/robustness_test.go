package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
// point (before the first prompt pass) until release is called; reached
// closes when the wave arrives at the stall. Deterministic
// hold-at-boundary control for tests that need the server's queue state
// frozen mid-wave.
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
	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), len(reqs), maxContext, kvcache.F32)
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
		Config:            Config{MicroBatch: 1, MaxContext: 64, Faults: inj},
		MaxQueuedRequests: 2,
		NumMicroBatches:   1, GenLen: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Submit(context.Background(), workload.Request{ID: 1, PromptLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The wave dispatches A (dequeuing it) and parks at the stall: the
	// queue bound is now exercised purely by the arrivals below.
	waitCh(t, reached, "wave to reach the stall point")
	b, err := srv.Submit(context.Background(), workload.Request{ID: 2, PromptLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.Submit(context.Background(), workload.Request{ID: 3, PromptLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.QueuedRequests != 2 {
		t.Errorf("queue ledger: %d requests, want 2", st.QueuedRequests)
	}
	_, derr := srv.Submit(context.Background(), workload.Request{ID: 4, PromptLen: 4})
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
	if st.KVLeaks != 0 || st.QueuedRequests != 0 {
		t.Errorf("post-drain state: %+v", st)
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
		Config:          Config{MicroBatch: 1, MaxContext: 64, Faults: inj},
		NumMicroBatches: 1, GenLen: 3, EnforceDeadlines: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Submit(context.Background(), workload.Request{ID: 1, PromptLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitCh(t, reached, "wave to reach the stall point")
	b, err := srv.SubmitSLO(context.Background(), workload.Request{ID: 2, PromptLen: 5}, SLO{TTFT: 2 * time.Millisecond})
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

// TestWaveWatchdogFailsStalledWave: a wave stalled indefinitely at a
// boundary ends when its WaveTimeout deadline wakes the stall — its
// request fails with ErrWaveStalled, the KV audit stays clean, the next
// wave on the same server runs normally, and Close returns (with the
// stalled wave's error) instead of hanging.
func TestWaveWatchdogFailsStalledWave(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 35)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{}) // never closed: the stall never ends on its own
	inj := faults.New(faults.Config{StallEvery: 1, Gate: gate})
	// Every wave gets this deadline, the healthy one after the stall
	// too: under the race detector even a one-request wave can run past
	// 50ms.
	timeout := 50 * time.Millisecond
	if raceEnabled {
		timeout = 500 * time.Millisecond
	}
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 1, MaxContext: 64, Faults: inj},
		NumMicroBatches: 1, GenLen: 2, WaveTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := srv.Submit(context.Background(), workload.Request{ID: 1, PromptLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, herr := h.Wait(); !errors.Is(herr, ErrWaveStalled) {
		t.Fatalf("stalled wave request: want ErrWaveStalled, got %v", herr)
	}
	// The stall ends; the next wave runs on the same pipeline under a
	// deadline of its own, so it completes with the reference's tokens.
	close(gate)
	req := workload.Request{ID: 2, PromptLen: 5}
	h2, err := srv.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, herr := h2.Wait()
	if herr != nil {
		t.Fatalf("wave after the stalled one: %v", herr)
	}
	if want := refTokens(t, w, []workload.Request{req}, 32, 2); !reflect.DeepEqual(got, want[0]) {
		t.Errorf("wave after the stalled one: got %v, want %v", got, want[0])
	}
	if cerr := srv.Close(); !errors.Is(cerr, ErrWaveStalled) {
		t.Fatalf("Close: want ErrWaveStalled, got %v", cerr)
	}
	st := srv.Stats()
	if st.WaveTimeouts != 1 || st.Failed != 1 || st.Completed != 1 || st.KVLeaks != 0 {
		t.Errorf("stats: timeouts %d failed %d completed %d leaks %d, want 1/1/1/0",
			st.WaveTimeouts, st.Failed, st.Completed, st.KVLeaks)
	}
	// The failed wave held the engine until its deadline passed: that is
	// busy time, or TokensPerSecond overstates the rate after any failed
	// wave.
	srv.mu.Lock()
	busy := srv.busy
	srv.mu.Unlock()
	if busy < timeout {
		t.Errorf("busy time %v after a wave that ran into its %v deadline", busy, timeout)
	}
}

// TestWaveDeadlineDiesWithItsWave: each wave runs under a WaveTimeout of
// its own. A wave that finishes inside its deadline leaves nothing armed,
// so a later wave, dispatched after that deadline would have passed,
// completes with the reference's tokens and no timeout is counted.
func TestWaveDeadlineDiesWithItsWave(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 37)
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 250 * time.Millisecond
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 1, MaxContext: 64},
		NumMicroBatches: 1, GenLen: 2, WaveTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range []workload.Request{{ID: 1, PromptLen: 4}, {ID: 2, PromptLen: 5}} {
		if i > 0 {
			time.Sleep(timeout + 50*time.Millisecond) // past the first wave's deadline
		}
		h, err := srv.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, herr := h.Wait()
		if herr != nil {
			t.Fatalf("wave %d: %v", i+1, herr)
		}
		if want := refTokens(t, w, []workload.Request{req}, 32, 2); !reflect.DeepEqual(got, want[0]) {
			t.Errorf("wave %d: got %v, want %v", i+1, got, want[0])
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := srv.Stats(); st.WaveTimeouts != 0 || st.Completed != 2 {
		t.Errorf("stats: timeouts %d completed %d, want 0/2", st.WaveTimeouts, st.Completed)
	}
}

// TestCloseLeavesNoGoroutine: Close returns only after the admission loop
// and the pipeline's lane workers have exited, after a wave that
// completed and after one that ran past its WaveTimeout alike.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	cfg := model.Tiny()
	tensor.Default() // the kernels' process-wide worker pool lives on by design
	for _, stalled := range []bool{false, true} {
		cpu, gpu, pinned, cacheArena := newTestArenas()
		w, err := NewRandomWeights(cpu, cfg, 38)
		if err != nil {
			t.Fatal(err)
		}
		sc := ServeConfig{
			Config:          Config{MicroBatch: 1, MaxContext: 64},
			NumMicroBatches: 1, GenLen: 2,
		}
		if stalled {
			// The stalled-wave test's setup: the gate never opens, so only
			// the deadline ends the wave.
			sc.Faults = faults.New(faults.Config{StallEvery: 1, Gate: make(chan struct{})})
			sc.WaveTimeout = 50 * time.Millisecond
		}
		base := runtime.NumGoroutine()
		srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, sc)
		if err != nil {
			t.Fatal(err)
		}
		h, err := srv.Submit(context.Background(), workload.Request{ID: 1, PromptLen: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, herr := h.Wait(); stalled && !errors.Is(herr, ErrWaveStalled) || !stalled && herr != nil {
			t.Fatalf("stalled=%v: wave error %v", stalled, herr)
		}
		srv.Close() // its error is the wave's, checked above
		if n := goroutinesAfter(base); n > base {
			t.Errorf("stalled=%v: %d goroutines after Close, %d before NewServer", stalled, n, base)
		}
	}
}

// goroutinesAfter waits up to a second for the goroutine count to fall
// back to base and returns the last count read.
func goroutinesAfter(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestServerSubmitNeverWaitsOnAWave: Submit only appends to the
// server's queue, so a hundred arrivals behind a wave held at its stall
// point all return at once — counted as submitted and queued — and are
// served once the wave moves on.
func TestServerSubmitNeverWaitsOnAWave(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 39)
	if err != nil {
		t.Fatal(err)
	}
	inj, reached, release := stallGate()
	defer release()
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 4, MaxContext: 32, Faults: inj},
		NumMicroBatches: 2, GenLen: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := srv.Submit(context.Background(), workload.Request{ID: 0, PromptLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitCh(t, reached, "wave to reach the stall point")
	const n = 100
	hs := make([]*Handle, 0, n+1)
	var returned atomic.Int32
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := 1; i <= n; i++ {
			h, err := srv.Submit(context.Background(), workload.Request{ID: i, PromptLen: 3 + i%5})
			if err != nil {
				t.Error(err)
				return
			}
			hs = append(hs, h)
			returned.Add(1)
		}
	}()
	select {
	case <-submitted:
	case <-time.After(2 * time.Second):
		got := returned.Load()
		release()
		<-submitted
		t.Fatalf("Submit blocked behind a running wave: %d of %d returned in 2 s", got, n)
	}
	if st := srv.Stats(); st.Submitted != n+1 || st.QueuedRequests != n {
		t.Errorf("while the wave is held: submitted %d, queued %d; want %d, %d", st.Submitted, st.QueuedRequests, n+1, n)
	}
	release()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, h := range append(hs, first) {
		if _, herr := h.Wait(); herr != nil {
			t.Errorf("request %d: %v", h.ID(), herr)
		}
	}
	if st := srv.Stats(); st.Completed != n+1 || st.QueuedRequests != 0 {
		t.Errorf("after Close: completed %d, queued %d; want %d, 0", st.Completed, st.QueuedRequests, n+1)
	}
}

// TestServerCloseRacesSubmit: Submits from eight goroutines race Close.
// Each returns ErrServerClosed or a handle that has finished by the time
// Close returns; every accepted request is counted once and served, and
// the server leaves no goroutine behind.
func TestServerCloseRacesSubmit(t *testing.T) {
	cfg := model.Tiny()
	tensor.Default() // the kernels' process-wide worker pool lives on by design
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 4, MaxContext: 32},
		NumMicroBatches: 2, GenLen: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each worker submits until the server refuses; Close comes once every
	// worker has one request in, so it lands among running submitters.
	const workers, most = 8, 1000
	var (
		mu       sync.Mutex
		accepted []*Handle
		refused  int
		wg, in   sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		in.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < most; i++ {
				h, err := srv.Submit(context.Background(), workload.Request{ID: g*most + i, PromptLen: 3 + i%5})
				if i == 0 {
					in.Done()
				}
				if errors.Is(err, ErrServerClosed) {
					mu.Lock()
					refused++
					mu.Unlock()
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				accepted = append(accepted, h)
				mu.Unlock()
				runtime.Gosched()
			}
		}()
	}
	in.Wait()
	closeErr := srv.Close()
	wg.Wait()
	if closeErr != nil {
		t.Errorf("Close: %v", closeErr)
	}
	for _, h := range accepted {
		select {
		case <-h.Done():
		default:
			t.Fatalf("request %d accepted but not finished when Close returned", h.ID())
		}
		if herr := h.Err(); herr != nil {
			t.Errorf("request %d: %v", h.ID(), herr)
		}
	}
	st := srv.Stats()
	if st.Submitted != len(accepted) || st.Submitted != st.Completed+st.Canceled+st.Failed {
		t.Errorf("accepted %d, submitted %d, completed %d + canceled %d + failed %d",
			len(accepted), st.Submitted, st.Completed, st.Canceled, st.Failed)
	}
	if n := goroutinesAfter(base); n > base {
		t.Errorf("%d goroutines after Close, %d before NewServer", n, base)
	}
	t.Logf("%d submits accepted, %d workers refused by Close", len(accepted), refused)
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

// routeProbe wraps a pipeline's expert source for one layer of one pass.
// There it records each sequence's routing, read from the pass's own rows
// (postRoute has left them in the scratch before ffn(l) acquires an
// expert), and fails expert fail's acquisition with err (none when fail
// < 0). Everywhere else it passes through.
type routeProbe struct {
	expertSource
	pl          *Pipeline
	pass, layer int // the pass, as pl.passes reads while it runs (0: not set yet), and its real layer
	fail        int
	err         error
	routedBySeq [][]int
}

func (f *routeProbe) Acquire(e int) (gate, up, down tensor.Panels, err error) {
	p := f.pl
	if p.passes != f.pass || p.expSrc.layer != f.layer {
		return f.expertSource.Acquire(e)
	}
	if f.routedBySeq == nil {
		f.routedBySeq = make([][]int, len(p.seqErr))
		for r, s := range p.rowSeq[:p.rowOff[len(p.mbs)]] {
			f.routedBySeq[s] = append([]int(nil), p.scratch.chosen[r]...)
		}
	}
	if e == f.fail {
		return tensor.Panels{}, tensor.Panels{}, tensor.Panels{}, f.err
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
	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), seqs, 64, kvcache.F32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, gen)
	if err != nil {
		t.Fatal(err)
	}
	errFetch := errors.New("injected: block unavailable")

	// run generates the wave; in decode step failStep's layer failLayer it
	// records each sequence's routed experts and, with failExpert >= 0,
	// fails that expert's acquisition.
	run := func(failExpert int) (pl *Pipeline, got [][]int, routedAt [][]int) {
		_, gpu, pinned, cacheArena := newTestArenas()
		pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, Config{MicroBatch: mu, MaxContext: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pl.Close)
		probe := &routeProbe{expertSource: pl.experts, pl: pl, layer: failLayer, fail: failExpert, err: errFetch}
		pl.experts = probe
		// The first token arrives once the prompt phase is over, after
		// pl.passes passes; decode step k is the pass after k more.
		got, err = pl.GenerateStream(prompts, gen, func(_, index, _ int) {
			if index == 0 && probe.pass == 0 {
				probe.pass = pl.passes + 1 + failStep
			}
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pl, got, probe.routedBySeq
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
		Config:          Config{MicroBatch: 3, MaxContext: 32, Faults: inj},
		NumMicroBatches: 1, GenLen: genLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []workload.Request{
		{ID: 1, PromptLen: 6},
		{ID: 2, PromptLen: 7},
		{ID: 3, PromptLen: 8},
	}
	hs, err := srv.SubmitBatch(context.Background(), reqs)
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
	// The loop stays idle (nothing is submitted): the test drives the
	// wave core on its own goroutine.
	s, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 100, Faults: inj},
		NumMicroBatches: 1, GenLen: genLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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

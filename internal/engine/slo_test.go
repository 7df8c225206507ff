package engine

import (
	"errors"
	"testing"
	"time"

	"moelightning/internal/model"
	"moelightning/internal/workload"
)

func newSLOTestServer(t *testing.T, cfg ServeConfig) *Server {
	t.Helper()
	mcfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, mcfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Vocab == 0 {
		cfg.Vocab = mcfg.VocabSize
	}
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestAdmissionOrderDeterministic: identical inputs always produce the
// identical permutation (stability of every tiebreak).
func TestAdmissionOrderDeterministic(t *testing.T) {
	base := time.Unix(0, 0)
	items := make([]AdmissionItem, 20)
	for i := range items {
		items[i] = AdmissionItem{Submitted: base, SLO: SLO{TTFT: time.Duration(1+i%3) * time.Second}}
	}
	a := AdmissionOrder(items, base, 0)
	b := AdmissionOrder(items, base, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order: %v vs %v", a, b)
		}
	}
}

// TestServerSLOAwareStarvationBound is the live starvation regression:
// a long-prompt request with a loose deadline, deferred wave after wave
// by a stream of tight-deadline short requests, must still be admitted
// once it hits the starvation bound — not fail with ErrNoProgress, not
// defer forever.
func TestServerSLOAwareStarvationBound(t *testing.T) {
	srv := newSLOTestServer(t, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 40},
		AdmissionPolicy: AdmissionPolicy{SLOAware: true, StarvationWaves: 2},
		NumMicroBatches: 1, GenLen: 2, CacheTokens: 40,
	})

	// The long request fills most of one micro-batch's 40-token budget
	// (24 + 2 gen = 26): it fits alone but not alongside two short
	// requests. The shorts' blown-1ms TTFTs always sort ahead of its
	// 10s slack, so pure slack ordering would defer it until the queue
	// drains; the starvation bound must admit it sooner. One SubmitBatch
	// keeps the whole queue in the first wave's admission round.
	reqs := []workload.Request{{ID: 1, PromptLen: 24, GenLen: 2}}
	slos := []SLO{{TTFT: 10 * time.Second}}
	for i := 0; i < 8; i++ {
		reqs = append(reqs, workload.Request{ID: 10 + i, PromptLen: 6, GenLen: 2})
		slos = append(slos, SLO{TTFT: time.Millisecond})
	}
	handles, err := srv.SubmitBatchSLO(reqs, slos, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	long := handles[0]
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("request %d failed: %v", h.ID(), err)
		}
	}
	st := srv.Stats()
	if st.Completed != 9 {
		t.Errorf("completed %d of 9", st.Completed)
	}
	if long.item.Deferrals == 0 {
		t.Error("long request was never deferred — the test exerted no pressure")
	}
	// The bound: the long request defers at most StarvationWaves times —
	// at that count the next boundary promotes it to the front of the
	// admission order, and as the only starved request it is placed into
	// an empty micro-batch first, so it cannot be passed over again.
	if long.item.Deferrals > 2 {
		t.Errorf("long request deferred %d times with StarvationWaves=2", long.item.Deferrals)
	}
}

// TestServerSLOStatsPopulated: percentile fields and SLO counters come
// back filled after an SLO-aware run.
func TestServerSLOStatsPopulated(t *testing.T) {
	srv := newSLOTestServer(t, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 32},
		AdmissionPolicy: AdmissionPolicy{SLOAware: true},
		NumMicroBatches: 2, GenLen: 4, CacheTokens: 128,
	})
	var handles []*Handle
	for i := 0; i < 6; i++ {
		// Generous targets: the tiny engine meets them, so SLOMet fills.
		h, err := srv.SubmitSLO(workload.Request{ID: 1 + i, PromptLen: 3 + i, GenLen: 4},
			SLO{TTFT: 30 * time.Second, TPOT: 30 * time.Second}, nil)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.SLORequests != 6 || st.SLOMet != 6 || st.SLOMissTTFT != 0 || st.SLOMissTPOT != 0 {
		t.Errorf("SLO accounting: %+v", st)
	}
	if st.TTFTP50 <= 0 || st.TTFTP99 < st.TTFTP50 {
		t.Errorf("TTFT percentiles unpopulated: p50=%v p99=%v", st.TTFTP50, st.TTFTP99)
	}
	if st.TPOTP50 <= 0 || st.TPOTP99 < st.TPOTP50 {
		t.Errorf("TPOT percentiles unpopulated: p50=%v p99=%v", st.TPOTP50, st.TPOTP99)
	}
	if st.AvgTTFT <= 0 {
		t.Errorf("AvgTTFT %v", st.AvgTTFT)
	}
}

// TestSLOMissAccounting: a request with an impossible TTFT target is
// counted as a TTFT miss, not silently met.
func TestSLOMissAccounting(t *testing.T) {
	srv := newSLOTestServer(t, ServeConfig{
		Config:          Config{MicroBatch: 1, MaxContext: 32},
		AdmissionPolicy: AdmissionPolicy{SLOAware: true},
		NumMicroBatches: 1, GenLen: 3, CacheTokens: 64,
	})
	h, err := srv.SubmitSLO(workload.Request{ID: 1, PromptLen: 4, GenLen: 3},
		SLO{TTFT: time.Nanosecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.SLORequests != 1 || st.SLOMissTTFT != 1 || st.SLOMet != 0 {
		t.Errorf("SLO accounting: %+v", st)
	}
}

// TestQueueCanceledHandleNeverBuffers is the Tokens-channel fix: a
// request canceled while queued finishes without ever allocating its
// generation-length buffer — Tokens() returns the shared closed channel
// (capacity 0) and ranges over it immediately.
func TestQueueCanceledHandleNeverBuffers(t *testing.T) {
	srv := newSLOTestServer(t, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 1024},
		NumMicroBatches: 1, GenLen: 512, CacheTokens: 2048,
	})
	canceled := make(chan struct{})
	close(canceled)
	h, err := srv.Submit(workload.Request{ID: 7, PromptLen: 4, GenLen: 512}, canceled)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, herr := h.Wait(); !errors.Is(herr, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", herr)
	}
	ch := h.Tokens()
	if cap(ch) != 0 {
		t.Errorf("queued-canceled handle allocated a %d-token buffer", cap(ch))
	}
	if _, open := <-ch; open {
		t.Error("closed-token channel delivered a token")
	}
	// The shared channel is reused across such handles.
	h2 := newHandle(workload.Request{ID: 8, PromptLen: 4, GenLen: 512}, nil, 512, SLO{})
	h2.settle(ErrCanceled)
	h2.wake()
	if h.Tokens() != h2.Tokens() {
		t.Error("tokenless finished handles should share the closed channel")
	}
}

// TestTokensLazyAllocation: a streaming consumer still gets a buffer
// sized to the effective generation length, so the engine's pushes
// never block; and a handle whose Tokens() is never called still
// finishes cleanly (wake closes only what was allocated).
func TestTokensLazyAllocation(t *testing.T) {
	h := newHandle(workload.Request{ID: 1, PromptLen: 4, GenLen: 9}, nil, 9, SLO{})
	if cap(h.Tokens()) != 9 {
		t.Fatalf("live handle buffer cap %d, want 9", cap(h.Tokens()))
	}
	// Unconsumed handle: pushes fill the buffer, wake closes it.
	h2 := newHandle(workload.Request{ID: 2, PromptLen: 4, GenLen: 2}, nil, 2, SLO{})
	h2.push(0, 42)
	h2.push(1, 43)
	h2.settle(nil)
	h2.wake()
	var got []int
	for tok := range h2.Tokens() {
		got = append(got, tok.ID)
	}
	if len(got) != 2 || got[0] != 42 || got[1] != 43 {
		t.Fatalf("tokens %v", got)
	}
}

// TestCancelMidWaveDoesNotStall: cancel fires mid-generation while the
// consumer never drains Tokens(); Close must still return (the push
// path never blocks on a full or unconsumed channel).
func TestCancelMidWaveDoesNotStall(t *testing.T) {
	srv := newSLOTestServer(t, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 32},
		NumMicroBatches: 1, GenLen: 8, CacheTokens: 128,
	})
	cancel := make(chan struct{})
	h, err := srv.Submit(workload.Request{ID: 1, PromptLen: 4, GenLen: 8}, cancel)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as the first token proves the wave is running.
	go func() {
		<-h.Tokens()
		close(cancel)
	}()
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close stalled after mid-wave cancel")
	}
	h.Wait() // either canceled or completed depending on timing; must not hang
}

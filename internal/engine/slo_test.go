package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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
	a := AdmissionOrder(items, base)
	b := AdmissionOrder(items, base)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order: %v vs %v", a, b)
		}
	}
}

// TestServerStarvationBound is the live starvation regression:
// a long-prompt request with a loose deadline, passed over wave after
// wave by tight-deadline short requests that keep arriving, waits for
// its turn and is placed once it hits the starvation bound — never
// failed, never deferred forever. The test drives the wave core itself,
// so two fresh arrivals join the queue at every boundary.
func TestServerStarvationBound(t *testing.T) {
	srv := newSLOTestServer(t, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 20},
		NumMicroBatches: 1, GenLen: 2,
	})
	defer srv.Close()

	// The long request fills most of one micro-batch's 40-token budget
	// (24 + 2 gen = 26): it fits alone or beside one short request, not
	// beside two. The shorts' blown-1ms TTFTs always sort ahead of its
	// 10s slack until it has been deferred three times.
	longReq := workload.Request{ID: 1, PromptLen: 24, GenLen: 2}
	long := newHandle(longReq, nil, 2, SLO{TTFT: 10 * time.Second})
	pending := []*Handle{long}
	var shorts []*Handle
	for b := 1; b <= 4; b++ {
		for k := 0; k < 2; k++ {
			h := newHandle(workload.Request{ID: 10*b + k, PromptLen: 6, GenLen: 2}, nil, 2, SLO{TTFT: time.Millisecond})
			shorts = append(shorts, h)
			pending = append(pending, h)
		}
		pending = srv.runWave(pending)
		select {
		case <-long.Done():
			if b < 4 {
				t.Fatalf("boundary %d: long request finished before the bound placed it: %v", b, long.Err())
			}
		default:
			if b == 4 {
				t.Fatalf("long request still queued after boundary 4, %d deferrals", long.item.Deferrals)
			}
		}
	}
	for len(pending) > 0 {
		pending = srv.runWave(pending)
	}
	got, err := long.Wait()
	if err != nil {
		t.Fatalf("long request: %v", err)
	}
	if want := refTokens(t, srv.pl.w, []workload.Request{longReq}, 32, 2); !reflect.DeepEqual(got, want[0]) {
		t.Errorf("long request: got %v, want %v", got, want[0])
	}
	if long.item.Deferrals != 3 {
		t.Errorf("long request deferred %d times, want 3", long.item.Deferrals)
	}
	for _, h := range shorts {
		if _, err := h.Wait(); err != nil {
			t.Errorf("request %d failed: %v", h.ID(), err)
		}
	}
	if st := srv.Stats(); st.Completed != 9 || st.MaxDeferrals != 3 {
		t.Errorf("stats: completed %d of 9, max deferrals %d, want 3", st.Completed, st.MaxDeferrals)
	}
}

// TestServerSlackOrderKeepsTheLenderCap: requests with TTFT targets are
// placed by slack, not length, so a shorter all-prefix request can be
// placed ahead of a longer one sharing its prefix. Slack places 1, 2,
// 3: 1 and 2 open the two micro-batches and 3 is dealt to 1's, the one
// that issues first. The batcher discounts 3 for the prefix 2 lends,
// but 2 is all prefix and lends only the 31 tokens ahead of its last
// one — one block — so 3 is charged all but that block, no longer fits
// beside 1 and waits for the next wave. Charged a two-block discount
// instead, it would be placed and issued ahead of 2, which then maps
// one block from it, and the wave would run out of KV blocks. The test
// drives the wave core itself, so all three reach one boundary.
func TestServerSlackOrderKeepsTheLenderCap(t *testing.T) {
	srv := newSLOTestServer(t, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 24},
		NumMicroBatches: 2, GenLen: 8,
	})
	defer srv.Close()
	reqs := []workload.Request{
		{ID: 1, PromptLen: 20, GenLen: 8},
		{ID: 2, PromptLen: 32, GenLen: 8, PrefixID: 5, PrefixLen: 32},
		{ID: 3, PromptLen: 40, GenLen: 8, PrefixID: 5, PrefixLen: 32},
	}
	var pending []*Handle
	for i, r := range reqs {
		pending = append(pending, newHandle(r, nil, 8, SLO{TTFT: time.Duration(i+1) * time.Hour}))
	}
	handles := pending
	for len(pending) > 0 {
		pending = srv.runWave(pending)
	}
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Errorf("request %d: %v", h.ID(), err)
		}
	}
	if st := srv.Stats(); st.Completed != 3 || st.Waves != 2 {
		t.Errorf("stats: completed %d of 3 in %d waves, want 2", st.Completed, st.Waves)
	}
}

// TestServerSLOStatsPopulated: percentile fields and SLO counters come
// back filled after a run of requests with SLO targets.
func TestServerSLOStatsPopulated(t *testing.T) {
	srv := newSLOTestServer(t, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 64},
		NumMicroBatches: 2, GenLen: 4,
	})
	var handles []*Handle
	for i := 0; i < 6; i++ {
		// Generous targets: the tiny engine meets them, so SLOMet fills.
		h, err := srv.SubmitSLO(context.Background(), workload.Request{ID: 1 + i, PromptLen: 3 + i, GenLen: 4},
			SLO{TTFT: 30 * time.Second, TPOT: 30 * time.Second})
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
		Config:          Config{MicroBatch: 1, MaxContext: 64},
		NumMicroBatches: 1, GenLen: 3,
	})
	h, err := srv.SubmitSLO(context.Background(), workload.Request{ID: 1, PromptLen: 4, GenLen: 3},
		SLO{TTFT: time.Nanosecond})
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

// TestQueueCanceledHandleClosesTokens: a request canceled while queued
// finishes with ErrCanceled and its Tokens channel is closed without a
// token, so a range over it ends at once.
func TestQueueCanceledHandleClosesTokens(t *testing.T) {
	srv := newSLOTestServer(t, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 1024},
		NumMicroBatches: 1, GenLen: 512,
	})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	h, err := srv.Submit(canceled, workload.Request{ID: 7, PromptLen: 4, GenLen: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, herr := h.Wait(); !errors.Is(herr, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", herr)
	}
	if _, open := <-h.Tokens(); open {
		t.Error("queued-canceled handle delivered a token")
	}
}

// TestTokensBufferedForGenLen: a handle's token channel is buffered for
// the effective generation length from Submit on, so the engine's
// pushes never block; and a handle whose Tokens() is never read still
// finishes cleanly.
func TestTokensBufferedForGenLen(t *testing.T) {
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
		Config:          Config{MicroBatch: 2, MaxContext: 64},
		NumMicroBatches: 1, GenLen: 8,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := srv.Submit(ctx, workload.Request{ID: 1, PromptLen: 4, GenLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as the first token proves the wave is running.
	go func() {
		<-h.Tokens()
		cancel()
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

// TestSLOVerdict is the rule every SLO tally counts by, row by row, and
// the tally those rows fold into.
func TestSLOVerdict(t *testing.T) {
	slo := SLO{TTFT: 100 * time.Millisecond, TPOT: 10 * time.Millisecond}
	ms := time.Millisecond
	var tally SLOTally
	for _, tc := range []struct {
		name                       string
		slo                        SLO
		err                        error
		tokens                     int
		ttft, tpot                 time.Duration
		judged, missTTFT, missTPOT bool
	}{
		{"zero SLO is not judged", SLO{}, errors.New("boom"), 0, 0, 0, false, false, false},
		{"canceled is not judged", slo, fmt.Errorf("wave 3: %w", ErrCanceled), 1, 500 * ms, 0, false, false, false},
		{"met", slo, nil, 4, 50 * ms, 5 * ms, true, false, false},
		{"error is a TTFT miss", slo, ErrWaveStalled, 4, 50 * ms, 5 * ms, true, true, false},
		{"no token is a TTFT miss", slo, nil, 0, 0, 0, true, true, false},
		{"no token without a TTFT target is met", SLO{TPOT: slo.TPOT}, nil, 0, 0, 0, true, false, false},
		{"late first token is a TTFT miss", slo, nil, 4, 150 * ms, 5 * ms, true, true, false},
		{"slow decode is a TPOT miss", slo, nil, 4, 50 * ms, 20 * ms, true, false, true},
		{"one token is not judged on TPOT", slo, nil, 1, 50 * ms, 20 * ms, true, false, false},
		{"both misses", slo, nil, 4, 150 * ms, 20 * ms, true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			judged, missTTFT, missTPOT := tc.slo.Verdict(tc.err, tc.tokens, tc.ttft, tc.tpot)
			if judged != tc.judged || missTTFT != tc.missTTFT || missTPOT != tc.missTPOT {
				t.Errorf("Verdict = judged %v, TTFT miss %v, TPOT miss %v; want %v, %v, %v",
					judged, missTTFT, missTPOT, tc.judged, tc.missTTFT, tc.missTPOT)
			}
			wantMet := tc.judged && !tc.missTTFT && !tc.missTPOT
			if met := tally.Count(tc.slo, tc.err, tc.tokens, tc.ttft, tc.tpot); met != wantMet {
				t.Errorf("Count = %v, want %v", met, wantMet)
			}
		})
	}
	if want := (SLOTally{SLORequests: 8, SLOMet: 3, SLOMissTTFT: 4, SLOMissTPOT: 2}); tally != want {
		t.Errorf("tally %+v, want %+v", tally, want)
	}
}

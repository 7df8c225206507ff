package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"moelightning/internal/faults"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

func serveQueue(n int) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{ID: 100 + i, PromptLen: 3 + i%7, GenLen: 4}
	}
	return reqs
}

// TestServeMatchesReference: every request served in waves must produce
// exactly the tokens the sequential reference produces for it, on the
// server's one pipeline, whose counters the stats read without
// double-counting a wave.
func TestServeMatchesReference(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	queue := serveQueue(9)
	const genLen = 4

	res, err := Serve(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, queue, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 128},
		NumMicroBatches: 2, GenLen: genLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Waves < 3 {
		t.Errorf("10 requests over 2x2 waves should need >= 3 waves, got %d", res.Waves)
	}
	if res.Deferred == 0 {
		t.Error("later requests must have been deferred at least once")
	}
	if len(res.Outputs) != len(queue) {
		t.Fatalf("served %d of %d requests", len(res.Outputs), len(queue))
	}

	// Reference: each request independently.
	prompts := PromptsFromRequests(queue, cfg.VocabSize)
	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), len(queue), 64, kvcache.F32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, genLen)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range queue {
		if !reflect.DeepEqual(res.Outputs[r.ID], want[i]) {
			t.Errorf("request %d: serve %v != reference %v", r.ID, res.Outputs[r.ID], want[i])
		}
	}

	// The 9 requests run as 4 + 4 + 1 in 2, 2 and 1 micro-batches
	// (PlanWave over 2x2). Each wave runs one prompt pass (its prompts
	// are far under PrefillChunk) and genLen-1 decode steps: genLen
	// passes. A wave of nb micro-batches primes layer 0 in nb pages and
	// every pass pages Layers more layers (its layers 1..L-1 and the next
	// pass's layer 0), nb pages each, so
	//   PagesMoved = sum over waves of nb x (1 + Layers x genLen).
	// A layer's nb pages are its shared floats whatever nb is, and loadh
	// moves QDim floats per row per layer — a row per prompt token, then
	// one per sequence per decode step — so
	//   HtoDBytes = 4 x (SharedFloats x sum over waves of (1 + Layers x genLen)
	//               + Layers x QDim x (prompt tokens + (genLen-1) x requests)).
	waveMBs := []int{2, 2, 1}
	if res.Waves != len(waveMBs) {
		t.Fatalf("%d waves, want %d", res.Waves, len(waveMBs))
	}
	var pages, promptTokens int64
	for _, nb := range waveMBs {
		pages += int64(nb * (1 + cfg.Layers*genLen))
	}
	for _, p := range prompts {
		promptTokens += int64(len(p))
	}
	layerLoads := int64(len(waveMBs) * (1 + cfg.Layers*genLen))
	rows := promptTokens + int64((genLen-1)*len(queue))
	htod := 4 * (int64(NewLayout(cfg).SharedFloats())*layerLoads + int64(cfg.Layers*cfg.QDim())*rows)
	if res.KVLeaks != 0 || res.PagesMoved != pages || res.HtoDBytes != htod {
		t.Errorf("KV leaks %d, pages moved %d, HtoD bytes %d; want 0, %d, %d",
			res.KVLeaks, res.PagesMoved, res.HtoDBytes, pages, htod)
	}
}

// TestServeSingleWave: a queue that fits one wave runs in one wave.
func TestServeSingleWave(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, serveQueue(4), ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 256},
		NumMicroBatches: 2, GenLen: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Waves != 1 || res.Deferred != 0 {
		t.Errorf("waves=%d deferred=%d, want 1/0", res.Waves, res.Deferred)
	}
}

// TestServeRejectsImpossibleRequest: a prompt larger than the KV budget
// can never be placed and must be reported, not looped forever.
func TestServeRejectsImpossibleRequest(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	queue := []workload.Request{{ID: 1, PromptLen: 100, GenLen: 4}}
	_, err = Serve(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, queue, ServeConfig{
		Config:          Config{MicroBatch: 1, MaxContext: 50},
		NumMicroBatches: 1, GenLen: 4,
	})
	if err == nil {
		t.Fatal("impossible request accepted")
	}
}

// TestServerRejectsEmptyPrompt: a request without a prompt token is
// refused at Submit — with its batch-mate, since a batch is admitted
// whole — naming the request, and leaves no trace: nothing counted,
// queued or run. A good request after it is served with the reference's
// tokens and Close reports no error.
func TestServerRejectsEmptyPrompt(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 32},
		NumMicroBatches: 1, GenLen: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1} {
		hs, err := srv.SubmitBatch(context.Background(), []workload.Request{{ID: 1, PromptLen: 4}, {ID: 2, PromptLen: n}})
		if err == nil || hs != nil {
			t.Fatalf("PromptLen %d: accepted (%d handles)", n, len(hs))
		}
		if !strings.Contains(err.Error(), "request 2") {
			t.Errorf("PromptLen %d: error does not name the request: %v", n, err)
		}
	}
	if st := srv.Stats(); st.Submitted != 0 || st.Shed != 0 || st.QueuedRequests != 0 {
		t.Errorf("a refused batch left a trace: %+v", st)
	}
	good := workload.Request{ID: 3, PromptLen: 5}
	h, err := srv.Submit(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	got, herr := h.Wait()
	if herr != nil {
		t.Fatalf("good request failed: %v", herr)
	}
	if want := refTokens(t, w, []workload.Request{good}, 32, 3); !reflect.DeepEqual(got, want[0]) {
		t.Errorf("tokens %v, reference %v", got, want[0])
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestServerRejectsUnplaceableRequest: a request too long for even an
// empty micro-batch's KV budget (MicroBatch x MaxContext float32
// tokens, charged in whole blocks of prompt + the wave's GenLen) is
// refused at Submit with its batch-mates, naming it and counting
// nothing — it no longer waits a wave boundary and then fails every
// request beside it and the server's Close. At the facade's default
// shape the budget is 2 x 128 = 256 tokens: a 248-token prompt plus 8
// fills 16 blocks exactly, 249 needs a 17th. The good requests complete
// with the reference's tokens and Close reports no error.
func TestServerRejectsUnplaceableRequest(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	const maxContext, genLen = 128, 8
	srv, err := NewServer(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: maxContext},
		NumMicroBatches: 2, GenLen: genLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	good := []workload.Request{{ID: 1, PromptLen: 12}, {ID: 2, PromptLen: 248}, {ID: 3, PromptLen: 30}}
	for _, n := range []int{249, 300} {
		hs, err := srv.SubmitBatch(context.Background(), []workload.Request{good[0], {ID: 7, PromptLen: n}})
		if err == nil || hs != nil {
			t.Fatalf("PromptLen %d: accepted (%d handles)", n, len(hs))
		}
		if !strings.Contains(err.Error(), "request 7") {
			t.Errorf("PromptLen %d: error does not name the request: %v", n, err)
		}
	}
	if st := srv.Stats(); st.Submitted != 0 || st.Shed != 0 || st.QueuedRequests != 0 {
		t.Errorf("a refused batch left a trace: %+v", st)
	}
	hs, err := srv.SubmitBatch(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	want := refTokens(t, w, good, 2*maxContext, genLen)
	for i, h := range hs {
		got, herr := h.Wait()
		if herr != nil {
			t.Fatalf("request %d failed: %v", h.ID(), herr)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("request %d: tokens %v, reference %v", h.ID(), got, want[i])
		}
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if st := srv.Stats(); st.Submitted != len(good) || st.Completed != len(good) {
		t.Errorf("submitted %d completed %d, want %d", st.Submitted, st.Completed, len(good))
	}
}

// TestPipelineExplicitPartition: uneven Alg. 2-style partitions work and
// match the reference.
func TestPipelineExplicitPartition(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	prompts := testPrompts(5, 3, 8, cfg.VocabSize)
	partition := [][]int{{3, 0}, {1}, {4, 2}}

	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 5, Config{
		MaxContext: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, err := pl.Run(context.Background(), prompts, partition, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewReferenceKV(w, memory.NewArena("rc", 1<<22), 5, 64, kvcache.F32)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Generate(prompts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partitioned pipeline diverges:\n got %v\nwant %v", got, want)
	}
}

func TestPartitionValidation(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][][]int{
		{{0, 1}, {}},     // empty micro-batch
		{{0, 1}, {1, 2}}, // duplicate
		{{0, 5}},         // out of range
		{{0}},            // incomplete cover (n=3)
	}
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 3, Config{MaxContext: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	prompts := testPrompts(3, 3, 4, cfg.VocabSize)
	for i, part := range bad {
		if _, err := pl.Run(context.Background(), prompts, part, 2, nil, nil); err == nil {
			t.Errorf("case %d: bad partition accepted", i)
		}
	}
}

// TestServeConfigRestatesNoEngineOption: ServeConfig carries the
// pipeline's Config by embedding, and no field of its own shadows a
// Config field — so an engine knob exists in exactly one place below
// the public facade.
func TestServeConfigRestatesNoEngineOption(t *testing.T) {
	sc, pc := reflect.TypeOf(ServeConfig{}), reflect.TypeOf(Config{})
	if f, ok := sc.FieldByName("Config"); !ok || !f.Anonymous || f.Type != pc {
		t.Fatal("ServeConfig does not embed Config")
	}
	for i := 0; i < sc.NumField(); i++ {
		if f := sc.Field(i); f.Type != pc {
			if _, dup := pc.FieldByName(f.Name); dup {
				t.Errorf("ServeConfig.%s restates Config.%s", f.Name, f.Name)
			}
		}
	}
	// A host sized for one short sequence cannot hold a 4x4 wave of
	// long ones: NewServer refuses it before any wave runs.
	host, err := NewHost(model.Tiny(), 1, 1, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	undersized := ServeConfig{Config: Config{MicroBatch: 4, MaxContext: 8192}, NumMicroBatches: 4}
	if _, err := NewServer(host, undersized); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Errorf("NewServer on an undersized host: want arena exhaustion, got %v", err)
	}
}

// counters strips a snapshot down to what two runs of the same queue
// must agree on: everything derived from wall-clock time, and the
// expert pager's timing-dependent prefetch/miss split, is zeroed.
func counters(st ServerStats) ServerStats {
	st.PrefillTokensPerSecond, st.TokensPerSecond = 0, 0
	st.AvgTTFT, st.AvgTPOT = 0, 0
	st.TTFTP50, st.TTFTP95, st.TTFTP99 = 0, 0, 0
	st.TPOTP50, st.TPOTP95, st.TPOTP99 = 0, 0, 0
	st.WeightBytesFetched, st.ExpertHits, st.ExpertMisses = 0, 0, 0
	return st
}

// TestStatsConservation: once Close returns, every admitted request is
// in exactly one terminal count and the queue ledger is empty — with
// completed, canceled, failed and deferred requests all in the mix —
// and Serve's result is the server's own snapshot, not a re-derivation.
func TestStatsConservation(t *testing.T) {
	cfg := ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 32},
		NumMicroBatches: 1, GenLen: 3,
	}
	newHost := func() *Host {
		host, err := NewHost(model.Tiny(), 11, 2, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		return host
	}
	// The first server's first KV block allocation is failed by
	// injection: a request that fails in its wave.
	faulty := cfg
	faulty.Faults = faults.New(faults.Config{KVAllocFailAt: []int{1}})
	srv, err := NewServer(newHost(), faulty)
	if err != nil {
		t.Fatal(err)
	}
	queue := serveQueue(5) // three waves of 2+2+1: deferrals
	if _, err := srv.SubmitBatch(context.Background(), queue); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Submit(canceled, workload.Request{ID: 1, PromptLen: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), workload.Request{ID: 2, PromptLen: 8}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	st := srv.Stats()
	if st.Submitted != 7 || st.Submitted != st.Completed+st.Canceled+st.Failed {
		t.Errorf("submitted %d != completed %d + canceled %d + failed %d",
			st.Submitted, st.Completed, st.Canceled, st.Failed)
	}
	if st.Canceled != 1 || st.Failed == 0 || st.Completed == 0 || st.Deferred == 0 {
		t.Errorf("the mix did not exercise every outcome: %+v", st)
	}
	if st.QueuedRequests != 0 {
		t.Errorf("queue ledger not empty after Close: %d requests", st.QueuedRequests)
	}

	// The same closed queue through Serve and through a Server by hand.
	res, err := Serve(newHost(), queue, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byHand, err := NewServer(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := byHand.SubmitBatch(context.Background(), queue); err != nil {
		t.Fatal(err)
	}
	byHand.Close()
	if got, want := counters(res.ServerStats), counters(byHand.Stats()); got != want {
		t.Errorf("Serve's snapshot differs from the server's:\n got %+v\nwant %+v", got, want)
	}
	if res.Submitted != len(queue) || res.Completed != len(queue) || res.GeneratedTokens != 3*len(queue) || res.TTFTP50 <= 0 {
		t.Errorf("Serve snapshot incomplete: %+v", res.ServerStats)
	}
}

// TestServeReturnsFailedRequestError: a request that fails in its wave
// fails the drain with its own error, so a caller counting Outputs
// never reads a short run as a whole one; the requests that succeeded
// keep their outputs.
func TestServeReturnsFailedRequestError(t *testing.T) {
	host, err := NewHost(model.Tiny(), 11, 2, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	queue := serveQueue(4)
	res, err := Serve(host, queue, ServeConfig{
		// The first KV block allocation fails: the first wave's first
		// request runs out of blocks.
		Config:          Config{MicroBatch: 2, MaxContext: 32, Faults: faults.New(faults.Config{KVAllocFailAt: []int{1}})},
		NumMicroBatches: 1, GenLen: 3,
	})
	if !errors.Is(err, kvcache.ErrOutOfBlocks) {
		t.Fatalf("Serve error = %v, want the failed request's ErrOutOfBlocks", err)
	}
	if res.Failed != 1 || len(res.Outputs) != len(queue)-1 {
		t.Fatalf("%d failed, %d outputs; want 1 failed and the other %d served", res.Failed, len(res.Outputs), len(queue)-1)
	}
	for _, r := range queue {
		if _, ok := res.Outputs[r.ID]; !ok && !strings.Contains(err.Error(), fmt.Sprintf("request %d:", r.ID)) {
			t.Errorf("the error does not name request %d, the one without output: %v", r.ID, err)
		}
	}
}

// TestStatsCoverFinishedWave: the instant a request's handle finishes,
// the server's stats already hold the busy time and wave count of the
// wave that served it — a client timing its own requests and reading
// TokensPerSecond right after never sees tokens without their time.
func TestStatsCoverFinishedWave(t *testing.T) {
	host, err := NewHost(model.Tiny(), 11, 1, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(host, ServeConfig{
		Config:          Config{MicroBatch: 1, MaxContext: 32},
		NumMicroBatches: 1, GenLen: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for wave := 1; wave <= 3; wave++ {
		h, err := srv.Submit(context.Background(), workload.Request{ID: wave, PromptLen: 4})
		if err != nil {
			t.Fatal(err)
		}
		for done := false; !done; { // poll, so the read lands right behind the finish
			select {
			case <-h.Done():
				done = true
			default:
				srv.Stats() // the pipeline's counters, read while its lanes write them
				runtime.Gosched()
			}
		}
		srv.mu.Lock()
		waves, busy := srv.stats.Waves, srv.busy
		srv.mu.Unlock()
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
		if waves != wave || busy <= 0 {
			t.Fatalf("after request %d finished: %d waves, %v busy", wave, waves, busy)
		}
	}
}

package engine

import (
	"reflect"
	"runtime"
	"testing"

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
// exactly the tokens the sequential reference produces for it.
func TestServeMatchesReference(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	queue := serveQueue(10)
	const genLen = 4

	res, err := Serve(&Host{W: w, GPU: gpu, Pinned: pinned, Cache: cacheArena}, queue, ServeConfig{
		Config:          Config{MicroBatch: 2, MaxContext: 32},
		NumMicroBatches: 2, GenLen: genLen, CacheTokens: 256,
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
	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), len(queue), 64)
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
		Config:          Config{MicroBatch: 2, MaxContext: 32},
		NumMicroBatches: 2, GenLen: 3, CacheTokens: 512,
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
		Config:          Config{MicroBatch: 1, MaxContext: 128},
		NumMicroBatches: 1, GenLen: 4, CacheTokens: 50,
	})
	if err == nil {
		t.Fatal("impossible request accepted")
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
		MaxContext: 64, Partition: partition,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got, err := pl.Generate(prompts, 5)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), 5, 64)
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
	for i, part := range bad {
		if _, err := NewPipeline(w, gpu, pinned, cacheArena, 3, Config{MaxContext: 16, Partition: part}); err == nil {
			t.Errorf("case %d: bad partition accepted", i)
		}
	}
}

// TestServeConfigRestatesNoEngineOption: ServeConfig carries the
// pipeline's Config by embedding, and no field of its own (or of the
// embedded AdmissionPolicy) shadows a Config field — so an engine knob
// exists in exactly one place below the public facade.
func TestServeConfigRestatesNoEngineOption(t *testing.T) {
	sc, pc := reflect.TypeOf(ServeConfig{}), reflect.TypeOf(Config{})
	if f, ok := sc.FieldByName("Config"); !ok || !f.Anonymous || f.Type != pc {
		t.Fatal("ServeConfig does not embed Config")
	}
	var check func(typ reflect.Type)
	check = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				if f.Type != pc {
					check(f.Type)
				}
				continue
			}
			if _, dup := pc.FieldByName(f.Name); dup {
				t.Errorf("%s.%s restates Config.%s", typ.Name(), f.Name, f.Name)
			}
		}
	}
	check(sc)
	host, err := NewHost(model.Tiny(), 1, 1, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	preset := ServeConfig{Config: Config{MicroBatch: 1, MaxContext: 16, Partition: [][]int{{0}}}, NumMicroBatches: 1, CacheTokens: 16}
	if _, err := NewServer(host, preset); err == nil {
		t.Error("NewServer accepted a preset Partition")
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
		NumMicroBatches: 1, GenLen: 3, CacheTokens: 64,
	}
	newHost := func() *Host {
		host, err := NewHost(model.Tiny(), 11, 2, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		return host
	}
	srv, err := NewServer(newHost(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	queue := serveQueue(5) // three waves of 2+2+1: deferrals
	if _, err := srv.SubmitBatch(queue, nil); err != nil {
		t.Fatal(err)
	}
	canceled := make(chan struct{})
	close(canceled)
	if _, err := srv.Submit(workload.Request{ID: 1, PromptLen: 4}, canceled); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(workload.Request{ID: 2, PromptLen: 500}, nil); err != nil { // fits no micro-batch
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
	if st.QueuedRequests != 0 || st.QueuedTokens != 0 {
		t.Errorf("queue ledger not empty after Close: %d requests, %d tokens", st.QueuedRequests, st.QueuedTokens)
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
	if _, err := byHand.SubmitBatch(queue, nil); err != nil {
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
		NumMicroBatches: 1, GenLen: 3, CacheTokens: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for wave := 1; wave <= 3; wave++ {
		h, err := srv.Submit(workload.Request{ID: wave, PromptLen: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for done := false; !done; { // poll, so the read lands right behind the finish
			select {
			case <-h.Done():
				done = true
			default:
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

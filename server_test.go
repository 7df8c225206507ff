package moelightning

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"moelightning/internal/engine"
)

func serverRequests(n, genLen int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{ID: 1 + i, PromptLen: 3 + i%7, GenLen: genLen}
	}
	return reqs
}

// TestServerStreamMatchesRunFunctional: the streaming API reproduces
// RunFunctional's (reference-verified) outputs token for token, and the
// per-handle streams arrive in index order.
func TestServerStreamMatchesRunFunctional(t *testing.T) {
	const seed, genLen = 9, 4
	reqs := serverRequests(6, genLen)

	want, err := RunFunctional(TinyMoE(), reqs, FunctionalOptions{ServerConfig: ServerConfig{Seed: seed, GenLen: genLen}, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Verified {
		t.Fatal("RunFunctional did not verify")
	}

	srv, err := NewServer(ServerConfig{Model: TinyMoE(), Seed: seed, GenLen: genLen})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	handles, err := srv.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		var streamed []int
		for tok := range h.Tokens() {
			if tok.Index != len(streamed) {
				t.Fatalf("request %d: token index %d out of order (have %d)", h.ID(), tok.Index, len(streamed))
			}
			streamed = append(streamed, tok.ID)
		}
		if !reflect.DeepEqual(streamed, want.Outputs[reqs[i].ID]) {
			t.Errorf("request %d: streamed %v, RunFunctional %v", h.ID(), streamed, want.Outputs[reqs[i].ID])
		}
		final, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(final, streamed) {
			t.Errorf("request %d: Wait %v != stream %v", h.ID(), final, streamed)
		}
	}

	st := srv.Stats()
	if st.Completed != len(reqs) || st.GeneratedTokens != len(reqs)*genLen {
		t.Errorf("stats: %+v", st)
	}
	if st.Waves != want.Waves || st.Deferred != want.Deferred {
		t.Errorf("waves/deferred %d/%d, RunFunctional %d/%d", st.Waves, st.Deferred, want.Waves, want.Deferred)
	}
	if st.AvgTTFT <= 0 || st.TokensPerSecond <= 0 {
		t.Errorf("latency stats not populated: %+v", st)
	}
}

// TestServerCancellationMidGeneration: canceling a request after its
// first token stops it mid-wave with a partial output, and requests
// served afterwards on the same server remain bit-identical to the
// sequential reference (via RunFunctional's verified outputs).
func TestServerCancellationMidGeneration(t *testing.T) {
	const seed, genLen = 4, 48
	srv, err := NewServer(ServerConfig{Model: TinyMoE(), Seed: seed, GenLen: genLen, MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	victim := Request{ID: 50, PromptLen: 6, GenLen: genLen}
	h, err := srv.Submit(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := <-h.Tokens()
	if !ok || first.Index != 0 {
		t.Fatalf("no first token: %+v ok=%v", first, ok)
	}
	cancel() // mid-generation: the engine retires the sequence at the next step boundary
	partial, herr := h.Wait()
	if !errors.Is(herr, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v (generated %d of %d)", herr, len(partial), genLen)
	}
	if len(partial) == 0 || len(partial) >= genLen {
		t.Fatalf("partial output has %d tokens, want in (0, %d)", len(partial), genLen)
	}

	// Later requests on the same server still verify: their outputs must
	// equal the reference-checked RunFunctional outputs for the same
	// seed and requests.
	later := serverRequests(4, genLen)
	want, err := RunFunctional(TinyMoE(), later, FunctionalOptions{
		ServerConfig: ServerConfig{Seed: seed, GenLen: genLen, MaxContext: 64}, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	handles, err := srv.SubmitBatch(context.Background(), later)
	if err != nil {
		t.Fatal(err)
	}
	for i, lh := range handles {
		got, err := lh.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.Outputs[later[i].ID]) {
			t.Errorf("post-cancellation request %d diverged from the reference:\n got %v\nwant %v",
				lh.ID(), got, want.Outputs[later[i].ID])
		}
	}
	if st := srv.Stats(); st.Canceled != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestServerConcurrentSubmit: many goroutines submitting at once are
// race-clean and every request's output still matches the
// reference-verified RunFunctional outputs (generation is per-request
// deterministic regardless of wave composition).
func TestServerConcurrentSubmit(t *testing.T) {
	const seed, genLen, workers, perWorker = 13, 4, 4, 3
	all := serverRequests(workers*perWorker, genLen)
	want, err := RunFunctional(TinyMoE(), all, FunctionalOptions{ServerConfig: ServerConfig{Seed: seed, GenLen: genLen}, Verify: true})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(ServerConfig{Model: TinyMoE(), Seed: seed, GenLen: genLen})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := all[wkr*perWorker+i]
				h, err := srv.Submit(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				got, err := h.Wait()
				if err != nil {
					errs <- fmt.Errorf("request %d: %w", req.ID, err)
					return
				}
				if !reflect.DeepEqual(got, want.Outputs[req.ID]) {
					errs <- fmt.Errorf("request %d: got %v, want %v", req.ID, got, want.Outputs[req.ID])
					return
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Stats(); st.Completed != len(all) {
		t.Errorf("stats: %+v", st)
	}
}

// TestServerLifecycle: Close drains, is idempotent, and later Submits
// fail with ErrServerClosed.
func TestServerLifecycle(t *testing.T) {
	srv, err := NewServer(ServerConfig{Model: TinyMoE(), GenLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := srv.Submit(context.Background(), Request{ID: 1, PromptLen: 4, GenLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if tokens, err := h.Wait(); err != nil || len(tokens) != 3 {
		t.Fatalf("drained request: tokens %v err %v", tokens, err)
	}
	if _, err := srv.Submit(context.Background(), Request{ID: 2, PromptLen: 4, GenLen: 3}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit after close: want ErrServerClosed, got %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestNewServerRejectsBigModels mirrors RunFunctional's guard.
func TestNewServerRejectsBigModels(t *testing.T) {
	if _, err := NewServer(ServerConfig{Model: Mixtral8x7B()}); err == nil {
		t.Fatal("full-size model accepted by the functional server")
	}
}

// TestFunctionalOptionPlumbing: Lookahead and Vocab reach the engine
// (both runs verify against the reference under their own settings) and
// Deferred surfaces in the result.
func TestFunctionalOptionPlumbing(t *testing.T) {
	reqs := serverRequests(5, 4)
	res, err := RunFunctional(TinyMoE(), reqs, FunctionalOptions{
		ServerConfig: ServerConfig{Seed: 9, GenLen: 4, Lookahead: 3, Vocab: 101}, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("verification did not run")
	}
	if res.Waves < 2 || res.Deferred == 0 {
		t.Errorf("5 requests over 2x2 waves should defer at least one: %+v", res)
	}
	// A different vocab yields different prompts, hence different tokens.
	other, err := RunFunctional(TinyMoE(), reqs, FunctionalOptions{ServerConfig: ServerConfig{Seed: 9, GenLen: 4}, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for id, toks := range res.Outputs {
		if !reflect.DeepEqual(toks, other.Outputs[id]) {
			same = false
		}
	}
	if same {
		t.Error("Vocab option had no effect on the generated prompts")
	}
}

// TestServerConfigCoversEngineConfig: the flat public ServerConfig is
// the one hand-written mapping left above the engine, so every engine
// knob must have a counterpart there — all of engine.Config except the
// two the server decides itself (the micro-batch size has its serving
// name, the partition comes from the batcher).
func TestServerConfigCoversEngineConfig(t *testing.T) {
	public := reflect.TypeOf(ServerConfig{})
	renamed := map[string]string{"MicroBatch": "MicroBatchSize", "SharedPrefix": "SharedPrefixKV"}
	ec := reflect.TypeOf(engine.Config{})
	for i := 0; i < ec.NumField(); i++ {
		name := ec.Field(i).Name
		if name == "Partition" {
			continue
		}
		if to, ok := renamed[name]; ok {
			name = to
		}
		if _, ok := public.FieldByName(name); !ok {
			t.Errorf("engine.Config.%s has no ServerConfig.%s", ec.Field(i).Name, name)
		}
	}
}

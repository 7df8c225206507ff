package moelightning

import (
	"context"
	"fmt"
	"slices"

	"moelightning/internal/engine"
	"moelightning/internal/memory"
	"moelightning/internal/workload"
)

// Request is one inference request (prompt length + generation length).
type Request = workload.Request

// FunctionalOptions parameterizes a functional-engine run: a real
// (tiny-scale) MoE transformer executing CGOPipe with one goroutine per
// hardware lane over explicit memory arenas. The options are the
// server's own — RunFunctional sets Model and FixedGenLen itself —
// plus Verify.
type FunctionalOptions struct {
	ServerConfig
	// Verify re-runs every request on the sequential reference engine
	// and errors out on any token mismatch. The reference reads a cache
	// of the same KVDtype, so verification holds bit-exactly even with
	// quantization on.
	Verify bool
}

// FunctionalResult reports a functional run: the server's final
// counter snapshot (waves, deferrals, prefill and prefix-reuse totals,
// data movement, expert paging — see ServerStats) plus the tokens.
type FunctionalResult struct {
	ServerStats
	// Outputs maps request ID to generated token IDs.
	Outputs map[int][]int
	// Verified is true when the reference cross-check ran and matched.
	Verified bool
}

// RunFunctional serves a request queue through the functional CGOPipe
// engine at tiny scale: a thin compatibility wrapper over Server that
// submits the whole queue at once and drains it, reproducing the
// classic closed-batch behavior (every request generates exactly GenLen
// tokens). Use TinyMoE() (or a similarly small config) — this executes
// real float32 math, so full-size configs are intentionally not
// supported.
func RunFunctional(cfg ModelConfig, requests []Request, opts FunctionalOptions) (FunctionalResult, error) {
	if len(requests) == 0 {
		return FunctionalResult{}, fmt.Errorf("moelightning: empty request queue")
	}
	opts.Model, opts.FixedGenLen = cfg, true
	srv, err := NewServer(opts.ServerConfig)
	if err != nil {
		return FunctionalResult{}, err
	}
	handles, err := srv.SubmitBatch(context.Background(), requests)
	if err != nil {
		srv.Close()
		return FunctionalResult{}, err
	}
	if err := srv.Close(); err != nil { // drains: every handle finishes
		return FunctionalResult{}, err
	}

	out := FunctionalResult{Outputs: make(map[int][]int, len(handles))}
	for _, h := range handles {
		tokens, herr := h.Wait()
		if herr != nil {
			return FunctionalResult{}, herr
		}
		out.Outputs[h.ID()] = tokens
	}
	out.ServerStats = srv.Stats()

	if opts.Verify {
		// srv.cfg is the serving path's effective configuration, so the
		// reference re-derives exactly the prompts the server used.
		prompts := engine.PromptsFromRequests(requests, srv.cfg.Vocab)
		ref, err := engine.NewReferenceKV(srv.host.W, memory.NewArena("ref", srv.host.Cache.Capacity()), len(requests), srv.cfg.MaxContext, srv.cfg.KVDtype)
		if err != nil {
			return out, err
		}
		want, err := ref.Generate(prompts, srv.cfg.GenLen)
		if err != nil {
			return out, err
		}
		for i, r := range requests {
			if !slices.Equal(out.Outputs[r.ID], want[i]) {
				return out, fmt.Errorf("moelightning: request %d diverged from the reference", r.ID)
			}
		}
		out.Verified = true
	}
	return out, nil
}

package moelightning

import (
	"fmt"
	"slices"

	"moelightning/internal/engine"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/workload"
)

// Request is one inference request (prompt length + generation length).
type Request = workload.Request

// FunctionalOptions parameterizes a functional-engine run: a real
// (tiny-scale) MoE transformer executing CGOPipe with one goroutine per
// hardware lane over explicit memory arenas. The options are the
// server's own — RunFunctional sets Model itself — plus Verify.
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
// engine at tiny scale: it drains the whole queue as one closed queue
// (engine.Serve) on a server built from opts, and every request
// generates exactly GenLen tokens, whatever its own Request.GenLen. Any
// failed request fails the run. Use TinyMoE() (or a similarly small
// config) — this executes real float32 math, so full-size configs are
// intentionally not supported.
func RunFunctional(cfg ModelConfig, requests []Request, opts FunctionalOptions) (FunctionalResult, error) {
	if len(requests) == 0 {
		return FunctionalResult{}, fmt.Errorf("moelightning: empty request queue")
	}
	opts.Model = cfg
	host, ecfg, err := newHost(opts.ServerConfig)
	if err != nil {
		return FunctionalResult{}, err
	}
	// A request's GenLen of 0 is the wave's: serve copies that all ask
	// for it.
	full := append([]Request(nil), requests...)
	for i := range full {
		full[i].GenLen = 0
	}
	res, err := engine.Serve(host, full, ecfg)
	if err != nil {
		return FunctionalResult{}, err
	}
	out := FunctionalResult{ServerStats: res.ServerStats, Outputs: res.Outputs}

	if opts.Verify {
		// The server derives prompts over the model's vocabulary and ecfg
		// is its effective configuration: the reference re-derives exactly
		// the prompts the server used.
		prompts := engine.PromptsFromRequests(requests, host.W.Cfg.VocabSize)
		arena := memory.NewArena("ref", kvcache.ArenaFloats(cfg.Layers, cfg.KVDim(), len(requests)*ecfg.MaxContext))
		ref, err := engine.NewReferenceKV(host.W, arena, len(requests), ecfg.MaxContext, ecfg.KVDtype)
		if err != nil {
			return out, err
		}
		want, err := ref.Generate(prompts, ecfg.GenLen)
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

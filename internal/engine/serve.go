package engine

import (
	"time"

	"moelightning/internal/workload"
)

// ServeConfig parameterizes wave-based batch serving: the request queue
// is processed in waves, each wave formed by the Alg. 2 batcher into
// balanced micro-batches and run through a CGOPipe pipeline. It is the
// pipeline's own Config plus the admission policy plus the knobs only
// the serving loop has; no engine option is restated here.
type ServeConfig struct {
	// Config is handed to every wave's pipeline as is, with the wave's
	// placement filled in as Partition (NewServer rejects a preset one).
	// Its MicroBatch is Alg. 2's ubs: the maximum requests per
	// micro-batch. KVDtype and SharedPrefix also shape the batcher's
	// byte budget and prefix discount.
	Config
	// AdmissionPolicy orders and bounds the pending queue.
	AdmissionPolicy
	// NumMicroBatches is Alg. 2's n_ub: micro-batches per wave.
	NumMicroBatches int
	// GenLen is tokens to generate per request.
	GenLen int
	// CacheTokens is the per-micro-batch KV budget, in float32-token
	// equivalents of arena capacity: the Alg. 2 batcher spends it in
	// bytes at the serving codec's kvcache.TokenBytes rate, so an int8
	// wave admits ~32/9 the context of the identical float32 config.
	CacheTokens int
	// Vocab sizes the synthetic prompts derived from request IDs.
	Vocab int
	// HonorRequestGenLen lets a request's own GenLen (when 0 < GenLen <
	// the wave's GenLen) end it early, retiring its sequence and freeing
	// its KV blocks mid-wave. Off, every request generates exactly
	// GenLen tokens — the classic closed-batch behavior Serve and
	// RunFunctional keep.
	HonorRequestGenLen bool
	// SLOAwareShed adds a projection-based shed on top of the hard
	// queue bounds: once the server has a measured generation rate, a
	// batch whose projected queue drain time exceeds every one of its
	// TTFT budgets is rejected with ErrOverloaded at Submit.
	SLOAwareShed bool
	// EnforceDeadlines fails queued requests whose TTFT budget has
	// already expired at the wave boundary (ErrDeadlineExceeded), before
	// any prefill is wasted on them.
	EnforceDeadlines bool
	// TPOTGuard retires decoding sequences whose elapsed decode time
	// already exceeds their whole TPOT budget (ErrDeadlineExceeded),
	// through the normal stop path — survivors stay bit-identical.
	TPOTGuard bool
	// WaveTimeout arms the wave watchdog: a wave running longer is asked
	// to abort cooperatively; one that ignores the abort for another
	// WaveTimeout+1s is abandoned and the server marks itself broken
	// (ErrWaveStalled). 0 disables the watchdog.
	WaveTimeout time.Duration
}

// ServeResult is the outcome of serving a closed queue: the server's
// final counter snapshot plus the tokens.
type ServeResult struct {
	ServerStats
	// Outputs maps request ID to its generated tokens.
	Outputs map[int][]int
}

// Serve drains a closed request queue through successive pipeline
// waves: a thin wrapper over the long-lived Server that submits the
// whole queue at once and waits for the drain.
func Serve(host *Host, queue []workload.Request, cfg ServeConfig) (ServeResult, error) {
	res := ServeResult{Outputs: make(map[int][]int)}
	if len(queue) == 0 {
		return res, nil
	}
	srv, err := NewServer(host, cfg)
	if err != nil {
		return res, err
	}
	handles, err := srv.SubmitBatch(queue, nil)
	if err != nil {
		srv.Close()
		return res, err
	}
	closeErr := srv.Close() // drains: every handle finishes
	for _, h := range handles {
		if tokens, herr := h.Wait(); herr == nil {
			res.Outputs[h.ID()] = tokens
		}
	}
	res.ServerStats = srv.Stats()
	return res, closeErr
}

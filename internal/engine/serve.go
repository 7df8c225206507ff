package engine

import (
	"cmp"
	"context"
	"time"

	"moelightning/internal/kvcache"
	"moelightning/internal/perfmodel"
	"moelightning/internal/workload"
)

// ServeConfig parameterizes wave-based batch serving: the request queue
// is processed in waves, each wave formed by the Alg. 2 batcher into
// balanced micro-batches and run through a CGOPipe pipeline. It is the
// pipeline's own Config plus the knobs only the serving loop has; no
// engine option is restated here. Admission order has no knob: it is
// read from the requests (AdmissionOrder).
type ServeConfig struct {
	// Config is handed as is to the server's one pipeline, which runs
	// every wave in the batcher's placement. Its MicroBatch is Alg. 2's
	// ubs: the maximum requests per micro-batch. MaxContext and KVDtype
	// also shape the batcher's KV budget; the prefix discount is charged
	// in the cache's whole blocks, as the pipeline shares them.
	Config
	// MaxQueuedRequests bounds the admitted-but-not-yet-dispatched set:
	// an arrival that would push past it fails fast with ErrOverloaded
	// (QueueBound) instead of queueing toward a blown deadline. <= 0
	// disables the bound.
	MaxQueuedRequests int
	// NumMicroBatches is Alg. 2's n_ub: micro-batches per wave.
	NumMicroBatches int
	// GenLen is the wave's generation length: a request generates its
	// own GenLen tokens when 0 < GenLen < this, and this many otherwise.
	// A request that ends early retires its sequence and frees its KV
	// blocks mid-wave.
	GenLen int
	// EnforceDeadlines fails queued requests whose TTFT budget has
	// already expired at the wave boundary (ErrDeadlineExceeded), before
	// any prefill is wasted on them.
	EnforceDeadlines bool
	// WaveTimeout is each wave's deadline: a wave running longer ends at
	// its next pass boundary and its requests fail with ErrWaveStalled.
	// 0 sets no deadline.
	WaveTimeout time.Duration
}

// ServeConfigForPolicy maps an optimizer policy onto the serve shape
// that runs it: the policy's μ sequences a micro-batch and its ⌈N/μ⌉
// micro-batches (at least one) shape each wave, and the workload's
// longest prompt (its mean when no maximum is set) plus its GenLen size
// the context bound (ContextBound), which is also each sequence's share
// of the Alg. 2 KV budget, so the batcher admits a whole micro-batch of
// the workload's longest requests. The wave length is the workload's
// GenLen.
func ServeConfigForPolicy(p perfmodel.Policy, w workload.Config, kv kvcache.DType) ServeConfig {
	prompt := w.MaxPrompt
	if prompt <= 0 {
		prompt = w.AvgPrompt
	}
	return ServeConfig{
		Config:          Config{MicroBatch: p.Mu, MaxContext: ContextBound(prompt, w.GenLen), KVDtype: kv},
		NumMicroBatches: max(p.MicroBatches(), 1),
		GenLen:          w.GenLen,
	}
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
// whole queue at once and waits for the drain. It returns the first
// failed request's error, in queue order, or else Close's; the
// requests that succeeded keep their outputs either way.
func Serve(host *Host, queue []workload.Request, cfg ServeConfig) (ServeResult, error) {
	res := ServeResult{Outputs: make(map[int][]int)}
	if len(queue) == 0 {
		return res, nil
	}
	srv, err := NewServer(host, cfg)
	if err != nil {
		return res, err
	}
	handles, err := srv.SubmitBatch(context.Background(), queue)
	if err != nil {
		srv.Close()
		return res, err
	}
	closeErr := srv.Close() // drains: every handle finishes
	var failed error
	for _, h := range handles {
		tokens, herr := h.Wait()
		if herr == nil {
			res.Outputs[h.ID()] = tokens
		} else if failed == nil {
			failed = herr
		}
	}
	res.ServerStats = srv.Stats()
	return res, cmp.Or(failed, closeErr)
}

package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/kvcache"
	"moelightning/internal/metrics"
	"moelightning/internal/workload"
)

// Server is the long-lived serving engine: one pipeline, built over the
// host's arenas once, runs every wave. Submit appends requests to the
// server's queue at any time and never waits on a wave; the admission
// loop takes the whole queue at every wave boundary, re-runs the Alg. 2
// batcher over (deferred + newly arrived) requests and streams each
// token to its handle as the producing decode step completes.
type Server struct {
	pl  *Pipeline
	cfg ServeConfig
	// bc is the Alg. 2 configuration; its KV budget is the pool's.
	bc batching.Config

	// wake rouses the admission loop after a Submit or Close: one slot
	// and a non-blocking send, so a wake-up already pending stands for
	// any number of later ones. done closes when the loop has exited.
	wake, done chan struct{}

	mu     sync.Mutex
	closed bool
	// queue is what was submitted since the loop last took it, in
	// arrival order; a batch is appended whole under one hold of mu.
	queue    []*Handle
	firstErr error
	// stats is the ServerStats snapshot accumulated in place (its
	// QueuedRequests is what the queue bound reads);
	// the rest is what Stats derives its rates, means and percentiles
	// from: time spent in waves and in prefill, and the latency
	// histograms (lazily allocated).
	stats             ServerStats
	busy, prefillTime time.Duration
	ttft, tpot        *metrics.Histogram
}

// NewServer builds the serving engine over a host and starts its
// admission loop. It resets the host's GPU, pinned and cache arenas and
// carves them, once, into the one pipeline every wave runs on:
// MicroBatch x NumMicroBatches sequences, a full wave. A host that
// cannot hold it fails here, not at a wave. The loop is the server's
// one goroutine besides the pipeline's lanes; Submit only appends to
// the queue it reads.
func NewServer(host *Host, cfg ServeConfig) (*Server, error) {
	if cfg.GenLen < 0 {
		return nil, fmt.Errorf("engine: negative GenLen %d", cfg.GenLen)
	}
	kvDim := host.W.Cfg.KVDim()
	bc := batching.Config{
		NumMicroBatches: cfg.NumMicroBatches,
		MicroBatchSize:  cfg.MicroBatch,
		GenLen:          cfg.GenLen,
		TokenBytes:      kvcache.TokenBytes(kvDim, cfg.KVDtype),
		CacheBytes:      cfg.MicroBatch * cfg.MaxContext * kvcache.TokenBytes(kvDim, kvcache.F32),
		BlockTokens:     kvcache.DefaultBlockTokens,
	}
	if err := bc.Validate(); err != nil {
		return nil, err
	}
	host.GPU.Reset()
	host.Pinned.Reset()
	host.Cache.Reset()
	pl, err := NewPipeline(host.W, host.GPU, host.Pinned, host.Cache, cfg.MicroBatch*cfg.NumMicroBatches, cfg.Config)
	if err != nil {
		return nil, fmt.Errorf("engine: host cannot hold a %dx%d wave: %w", cfg.NumMicroBatches, cfg.MicroBatch, err)
	}
	s := &Server{
		pl:   pl,
		cfg:  cfg,
		bc:   bc,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go s.loop()
	return s, nil
}

// EffGenLen resolves a request's generation length in a wave of
// waveGenLen steps: its own GenLen, capped at the wave length, or the
// wave length when it sets none.
func EffGenLen(r workload.Request, waveGenLen int) int {
	if r.GenLen > 0 && r.GenLen < waveGenLen {
		return r.GenLen
	}
	return waveGenLen
}

// Submit admits one request. Canceling ctx (nil never cancels) cancels
// the request: queued, it is dropped at the next wave boundary;
// mid-generation, its sequence retires at the next decode-step boundary
// and its KV blocks are freed, without perturbing any other request's
// tokens. The handle then finishes with ErrCanceled, returning the
// tokens streamed so far.
func (s *Server) Submit(ctx context.Context, req workload.Request) (*Handle, error) {
	return s.SubmitSLO(ctx, req, SLO{})
}

// SubmitSLO admits one request carrying a latency SLO. The SLO is
// accounted in Stats (met / TTFT miss / TPOT miss over finished
// requests), and a TTFT target sets the request's place in the
// wave-boundary admission order by its deadline slack
// (AdmissionOrder): ahead of every request with more slack and of
// every request without a target.
func (s *Server) SubmitSLO(ctx context.Context, req workload.Request, slo SLO) (*Handle, error) {
	hs, err := s.submitBatch(ctx, []workload.Request{req}, slo)
	if err != nil {
		return nil, err
	}
	return hs[0], nil
}

// SubmitBatch admits a group of requests atomically: they reach the same
// wave-boundary batching decision together, exactly as a closed queue
// would (Serve relies on this). ctx cancels the whole group.
func (s *Server) SubmitBatch(ctx context.Context, reqs []workload.Request) ([]*Handle, error) {
	return s.submitBatch(ctx, reqs, SLO{})
}

// submitBatch admits reqs as one group, each carrying slo. A batch
// holding a request without a prompt token, or one no micro-batch's KV
// budget holds, is rejected whole, before anything is counted.
func (s *Server) submitBatch(ctx context.Context, reqs []workload.Request, slo SLO) ([]*Handle, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("engine: empty request batch")
	}
	for _, r := range reqs {
		if r.PromptLen < 1 {
			return nil, fmt.Errorf("engine: request %d: prompt length %d, want at least 1", r.ID, r.PromptLen)
		}
		if !s.bc.Fits(r.PromptLen) {
			return nil, fmt.Errorf("engine: request %d: %d prompt + %d gen tokens exceed a micro-batch's KV budget (MicroBatch %d x MaxContext %d float32 tokens)",
				r.ID, r.PromptLen, s.cfg.GenLen, s.cfg.MicroBatch, s.cfg.MaxContext)
		}
	}
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	hs := make([]*Handle, len(reqs))
	for i, r := range reqs {
		hs[i] = newHandle(r, cancel, EffGenLen(r, s.cfg.GenLen), slo)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	// Overload control: bound the pending set before the batch enters
	// it. The whole batch is admitted or shed atomically.
	if err := QueueBound(s.cfg.MaxQueuedRequests, s.stats.QueuedRequests, len(hs)); err != nil {
		s.stats.Shed += len(hs)
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: shed %s", err, s.describeHandles(hs))
	}
	for _, h := range hs {
		h.queued = true
		s.stats.QueuedRequests++
	}
	// In the queue before the lock goes: a Close that follows finds the
	// batch there, and the loop serves it before it exits.
	s.stats.Submitted += len(hs)
	s.queue = append(s.queue, hs...)
	s.mu.Unlock()
	s.rouse()
	return hs, nil
}

// rouse wakes the admission loop without waiting for it.
func (s *Server) rouse() {
	select {
	case s.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// describeHandles names a handle group's requests and the KV blocks
// admission charges them, for the overload diagnostic: enough to
// identify WHICH requests were refused and what they asked for.
func (s *Server) describeHandles(hs []*Handle) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d request(s):", len(hs))
	for i, h := range hs {
		if i == 8 {
			fmt.Fprintf(&b, " …(+%d more)", len(hs)-i)
			break
		}
		fmt.Fprintf(&b, " id %d (%d prompt + %d gen tokens, %d KV blocks)", h.ID(), h.item.Req.PromptLen,
			s.cfg.GenLen, s.bc.Cost(h.item.Req.PromptLen)/(s.bc.BlockTokens*s.bc.TokenBytes))
	}
	return b.String()
}

// dequeueLocked takes a handle out of the queue gauge: called when it
// dispatches into a wave or finishes while queued. Idempotent; callers
// hold s.mu.
func (s *Server) dequeueLocked(h *Handle) {
	if !h.queued {
		return
	}
	h.queued = false
	s.stats.QueuedRequests--
}

// Close stops admission, serves every request already submitted, shuts
// the loop down, and returns the first wave error (if any). It blocks
// until the drain completes and is safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.rouse()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// loop is the admission loop. At every wave boundary it takes the whole
// queue, reaps canceled and expired requests, and runs one wave over
// (deferred + newly arrived) requests; with nothing pending it exits if
// the server is closed and otherwise sleeps until woken. It owns the
// pipeline and closes it on the way out.
func (s *Server) loop() {
	defer close(s.done)
	defer s.pl.Close()
	var pending []*Handle
	for {
		// The queue and the closed flag are read under one hold of mu: a
		// Submit that passed the closed check has appended by then, so
		// closed with nothing pending means nothing was accepted unserved.
		s.mu.Lock()
		pending = append(pending, s.queue...)
		s.queue = nil
		closed := s.closed
		s.mu.Unlock()
		// Reap requests canceled — or already past their TTFT deadline —
		// while still queued. Deadline enforcement at the wave boundary
		// fails a request BEFORE any prefill is wasted on it: a request
		// whose TTFT budget expired in the queue cannot meet it no matter
		// what the wave does.
		var live []*Handle
		now := time.Now()
		for _, h := range pending {
			if h.canceled() {
				s.finalize(h, ErrCanceled)
				continue
			}
			if ttft := h.item.SLO.TTFT; s.cfg.EnforceDeadlines && ttft > 0 {
				if waited := now.Sub(h.item.Submitted); waited > ttft {
					s.mu.Lock()
					s.stats.DeadlineDropped++
					s.mu.Unlock()
					s.finalize(h, fmt.Errorf("engine: request %d: TTFT deadline (%v) passed after %v in queue: %w",
						h.ID(), ttft, waited.Round(time.Microsecond), ErrDeadlineExceeded))
					continue
				}
			}
			live = append(live, h)
		}
		pending = live
		switch {
		case len(pending) > 0:
			pending = s.runWave(pending)
		case closed:
			return
		default:
			<-s.wake
		}
	}
}

func (s *Server) failAll(hs []*Handle, err error) {
	if len(hs) == 0 {
		return
	}
	s.mu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.mu.Unlock()
	for _, h := range hs {
		s.finalize(h, err)
	}
}

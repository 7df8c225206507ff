package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/kvcache"
	"moelightning/internal/metrics"
	"moelightning/internal/workload"
)

// Server is the long-lived serving engine: weights and arenas are built
// once and persist across waves. Submit admits requests at any time; the
// admission loop re-runs the Alg. 2 batcher over (deferred + newly
// arrived) requests at every wave boundary and streams each token to its
// handle as the producing decode step completes.
type Server struct {
	host *Host
	cfg  ServeConfig

	submitCh chan []*Handle
	closeCh  chan struct{}
	doneCh   chan struct{}

	mu       sync.Mutex
	closed   bool
	inflight int // submits past the closed check, not yet enqueued
	firstErr error
	// stats is the ServerStats snapshot accumulated in place (its
	// QueuedRequests / QueuedTokens are the overload-control ledger);
	// the rest is what Stats derives its rates, means and percentiles
	// from: time spent in waves and in prefill, and the latency
	// histograms (lazily allocated).
	stats             ServerStats
	busy, prefillTime time.Duration
	ttft, tpot        *metrics.Histogram
	// broken is set when a wedged wave forces the watchdog to abandon
	// the pipeline: the arenas are unrecoverable, so every later submit
	// and wave fails fast with this error.
	broken error
}

// batchConfig builds the Alg. 2 configuration for a server: the KV
// term is budgeted in BYTES — CacheTokens float32-token-equivalents of
// per-micro-batch arena capacity, spent at the serving codec's
// kvcache.TokenBytes rate — so an int8 wave admits ~32/9 the context
// of the identical float32 config instead of leaving the arena's
// headroom idle. For a float32 codec the byte check reduces exactly to
// the classic token check.
func batchConfig(cfg ServeConfig, kvDim int) batching.Config {
	return batching.Config{
		NumMicroBatches: cfg.NumMicroBatches,
		MicroBatchSize:  cfg.MicroBatch,
		GenLen:          cfg.GenLen,
		CacheTokens:     cfg.CacheTokens,
		TokenBytes:      kvcache.TokenBytes(kvDim, cfg.KVDtype),
		CacheBytes:      cfg.CacheTokens * kvcache.TokenBytes(kvDim, kvcache.F32),
		SharedPrefix:    cfg.SharedPrefix,
		BlockTokens:     kvcache.DefaultBlockTokens,
	}
}

// NewServer builds the serving engine over a host and starts its
// admission loop. The host's weights persist; its GPU, pinned and cache
// arenas are reset between waves.
func NewServer(host *Host, cfg ServeConfig) (*Server, error) {
	if cfg.Vocab <= 0 {
		cfg.Vocab = host.W.Cfg.VocabSize
	}
	if cfg.GenLen < 0 {
		return nil, fmt.Errorf("engine: negative GenLen %d", cfg.GenLen)
	}
	if cfg.Partition != nil {
		return nil, fmt.Errorf("engine: ServeConfig.Partition must be nil: every wave's partition comes from the batcher")
	}
	if err := batchConfig(cfg, host.W.Cfg.KVDim()).Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		host: host,
		cfg:  cfg,
		// Buffered so a burst of concurrent Submits does not serialize on
		// the loop while a wave runs; a full buffer only blocks the
		// submitter, never loses a batch.
		submitCh: make(chan []*Handle, 64),
		closeCh:  make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	go s.loop()
	return s, nil
}

// effGenLen resolves a request's generation length under the server
// config: with HonorRequestGenLen, a request's own GenLen (capped at the
// wave length) wins; otherwise every request runs the full wave length.
func (s *Server) effGenLen(r workload.Request) int {
	if s.cfg.HonorRequestGenLen && r.GenLen > 0 && r.GenLen < s.cfg.GenLen {
		return r.GenLen
	}
	return s.cfg.GenLen
}

// Submit admits one request. cancel (may be nil) cancels the request
// when closed: queued requests are dropped at the next wave boundary,
// in-flight requests retire at the next decode-step boundary, freeing
// their KV blocks; either way the handle finishes with ErrCanceled.
func (s *Server) Submit(req workload.Request, cancel <-chan struct{}) (*Handle, error) {
	return s.SubmitSLO(req, SLO{}, cancel)
}

// SubmitSLO admits one request carrying a latency SLO: the server
// counts the request into its SLO-attainment stats, and — when the
// server runs SLO-aware admission — prioritizes it at wave boundaries
// by its remaining TTFT slack.
func (s *Server) SubmitSLO(req workload.Request, slo SLO, cancel <-chan struct{}) (*Handle, error) {
	hs, err := s.SubmitBatchSLO([]workload.Request{req}, []SLO{slo}, cancel)
	if err != nil {
		return nil, err
	}
	return hs[0], nil
}

// SubmitBatch admits a group of requests atomically: they reach the same
// wave-boundary batching decision together, exactly as a closed queue
// would (the RunFunctional compatibility wrapper relies on this). The
// cancel channel, if non-nil, cancels the whole group.
func (s *Server) SubmitBatch(reqs []workload.Request, cancel <-chan struct{}) ([]*Handle, error) {
	return s.SubmitBatchSLO(reqs, nil, cancel)
}

// SubmitBatchSLO is SubmitBatch with a per-request SLO. slos may be nil
// (no targets) or must match reqs in length.
func (s *Server) SubmitBatchSLO(reqs []workload.Request, slos []SLO, cancel <-chan struct{}) ([]*Handle, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("engine: empty request batch")
	}
	if slos != nil && len(slos) != len(reqs) {
		return nil, fmt.Errorf("engine: %d SLOs for %d requests", len(slos), len(reqs))
	}
	hs := make([]*Handle, len(reqs))
	for i, r := range reqs {
		var slo SLO
		if slos != nil {
			slo = slos[i]
		}
		hs[i] = newHandle(r, cancel, s.effGenLen(r), slo)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	if s.broken != nil {
		err := s.broken
		s.mu.Unlock()
		return nil, err
	}
	// Overload control: bound the pending set before the batch enters
	// it. The whole batch is admitted or shed atomically.
	if err := s.admitCheckLocked(hs); err != nil {
		s.stats.Shed += len(hs)
		s.mu.Unlock()
		return nil, err
	}
	for _, h := range hs {
		h.queued = true
		s.stats.QueuedRequests++
		s.stats.QueuedTokens += h.qtokens
	}
	// The inflight count keeps the loop alive until this send lands,
	// even if Close races in between: a batch accepted here is always
	// served, never stranded.
	s.inflight++
	s.mu.Unlock()
	s.submitCh <- hs
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
	return hs, nil
}

// admitCheckLocked is the overload-control gate: the policy's hard
// queue bounds, and — under SLOAwareShed, once the server has a
// measured generation rate — a shed of any batch whose projected queue
// drain time already exceeds every one of its requests' TTFT budgets (a
// request with no TTFT budget never sheds this way). Callers hold s.mu.
func (s *Server) admitCheckLocked(hs []*Handle) error {
	tok := 0
	for _, h := range hs {
		tok += h.qtokens
	}
	if err := s.cfg.QueueBound(s.stats.QueuedRequests, s.stats.QueuedTokens, len(hs), tok); err != nil {
		return fmt.Errorf("%w: shed %s", err, s.describeHandles(hs))
	}
	if s.cfg.SLOAwareShed && s.busy > 0 && s.stats.GeneratedTokens > 0 {
		rate := float64(s.stats.GeneratedTokens) / s.busy.Seconds()
		drain := time.Duration(float64(s.stats.QueuedTokens+tok) / rate * float64(time.Second))
		shedAll := true
		for _, h := range hs {
			if h.item.SLO.TTFT <= 0 || drain <= h.item.SLO.TTFT {
				shedAll = false
				break
			}
		}
		if shedAll {
			return fmt.Errorf("%w: projected queue drain %v (%.0f tok/s over %d queued tokens) exceeds every TTFT budget of %s",
				ErrOverloaded, drain.Round(time.Millisecond), rate, s.stats.QueuedTokens+tok, s.describeHandles(hs))
		}
	}
	return nil
}

// describeHandles names a handle group's requests and their token/byte
// demands for admission-failure and no-progress diagnostics: enough to
// identify WHICH requests were refused and what they asked for.
func (s *Server) describeHandles(hs []*Handle) string {
	m := s.host.W.Cfg
	tokBytes := kvcache.TokenBytes(m.KVDim(), s.cfg.KVDtype) * m.Layers
	var b strings.Builder
	fmt.Fprintf(&b, "%d request(s):", len(hs))
	for i, h := range hs {
		if i == 8 {
			fmt.Fprintf(&b, " …(+%d more)", len(hs)-i)
			break
		}
		fmt.Fprintf(&b, " id %d (%d prompt + %d gen tokens, %d KV bytes)",
			h.ID(), h.item.Req.PromptLen, h.genLen, h.qtokens*tokBytes)
	}
	return b.String()
}

// dequeueLocked releases a handle's claim on the queue bounds: called
// when it dispatches into a wave or finishes while queued. Idempotent;
// callers hold s.mu.
func (s *Server) dequeueLocked(h *Handle) {
	if !h.queued {
		return
	}
	h.queued = false
	s.stats.QueuedRequests--
	s.stats.QueuedTokens -= h.qtokens
}

// Close stops admission, serves every request already submitted, shuts
// the loop down, and returns the first wave error (if any). It blocks
// until the drain completes and is safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closeCh)
	}
	s.mu.Unlock()
	<-s.doneCh
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// loop is the admission loop: block until work (or close) arrives, admit
// everything queued at the wave boundary, reap canceled queued requests,
// and run one wave over (deferred + newly arrived) requests.
func (s *Server) loop() {
	defer close(s.doneCh)
	var pending []*Handle
	closing := false
	for {
		if !closing && len(pending) == 0 {
			select {
			case hs := <-s.submitCh:
				pending = append(pending, s.admit(hs)...)
			case <-s.closeCh:
				closing = true
			}
		}
		if !closing {
			select {
			case <-s.closeCh:
				closing = true
			default:
			}
		}
		// Wave-boundary admission: pick up everything queued right now,
		// including submits that raced Close.
		pending = s.drainSubmits(pending)
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
		if len(pending) == 0 {
			if closing {
				// Exit handshake. Read inflight BEFORE draining: a
				// sender enqueues before decrementing, so inflight==0
				// here means every accepted batch already sits in the
				// buffer and the drain below sees it. inflight>0 means
				// a Submit that passed the closed check is mid-send —
				// yield and re-check rather than stranding its handles
				// (or blocking on a channel it may never send to again).
				s.mu.Lock()
				inflight := s.inflight
				s.mu.Unlock()
				pending = s.drainSubmits(pending)
				if len(pending) == 0 {
					if inflight == 0 {
						return
					}
					runtime.Gosched()
				}
			}
			continue
		}
		pending = s.runWave(pending)
	}
}

// drainSubmits appends every batch already sitting in the submit buffer
// to pending, counting it into the stats, without blocking.
func (s *Server) drainSubmits(pending []*Handle) []*Handle {
	for {
		select {
		case hs := <-s.submitCh:
			pending = append(pending, s.admit(hs)...)
		default:
			return pending
		}
	}
}

// admit counts a submitted batch into the stats as it enters the
// pending set.
func (s *Server) admit(hs []*Handle) []*Handle {
	s.mu.Lock()
	s.stats.Submitted += len(hs)
	s.mu.Unlock()
	return hs
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

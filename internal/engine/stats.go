package engine

import (
	"errors"
	"time"

	"moelightning/internal/metrics"
)

// ServerStats is a snapshot of a server's serving metrics. The server
// accumulates the counters in a value of this type directly; Stats
// copies it and fills in the derived fields (means, percentiles,
// ratios, rates).
type ServerStats struct {
	// Request accounting: admitted, finished successfully, canceled,
	// and failed (wave error / impossible to place).
	Submitted, Completed, Canceled, Failed int
	// Waves is how many pipeline waves completed; Deferred counts
	// requests pushed to a later wave at least once (Alg. 2's aborted
	// list).
	Waves, Deferred int
	// GeneratedTokens counts every token streamed to a handle.
	GeneratedTokens int
	// PrefillTokens counts prompt tokens prefilled across all waves
	// (a request retired by prefill-time KV exhaustion contributes
	// none); PrefillTokensPerSecond is prompt-phase throughput over the
	// time the waves spent in the packed prefill pass.
	PrefillTokens          int
	PrefillTokensPerSecond float64
	// PrefixHitTokens counts prompt tokens served by mapping a shared
	// resident prefix instead of prefilling them; PrefixHitRatio is
	// their share of all prompt tokens handled (hit + prefilled).
	// CowCopies counts copy-on-write block copies triggered by writes
	// into shared blocks.
	PrefixHitTokens int
	PrefixHitRatio  float64
	CowCopies       int64
	// AvgTTFT is the mean time from Submit to a request's first token;
	// AvgTPOT the mean time per output token after the first.
	AvgTTFT, AvgTPOT time.Duration
	// Latency percentiles over the same populations as the means, read
	// from fixed-bucket histograms (metrics.NewLatencyHistogram): time
	// to first token from Submit, and per-output-token time after the
	// first.
	TTFTP50, TTFTP95, TTFTP99 time.Duration
	TPOTP50, TPOTP95, TPOTP99 time.Duration
	// SLO accounting over finished requests that carried an SLO
	// (canceled requests are excluded — the client walked away, the
	// server neither met nor missed). SLOMet counts requests inside
	// every stated target; SLOMissTTFT / SLOMissTPOT count the blown
	// dimension (a request can miss both). A failed SLO request counts
	// as a TTFT miss: its first token never came.
	SLORequests, SLOMet      int
	SLOMissTTFT, SLOMissTPOT int
	// MaxDeferrals is the most wave boundaries any single request has
	// been passed over — the observed starvation bound.
	MaxDeferrals int
	// Overload / robustness accounting. Shed counts requests rejected at
	// Submit by overload control (never admitted, not in Submitted);
	// DeadlineDropped counts admitted requests dropped by deadline
	// enforcement (queued past their TTFT budget, or retired by the TPOT
	// guard); WaveTimeouts counts waves that tripped the watchdog;
	// KVLeaks counts waves whose end-of-wave KV-pool audit found blocks
	// not returned to the free list.
	Shed, DeadlineDropped, WaveTimeouts, KVLeaks int
	// Fault accounting from the expert pager: transient fetch faults
	// absorbed by retry, and fetches that failed past the retry budget
	// (each such failure retires the sequences routed to that expert).
	FaultRetries, FaultFailures int64
	// QueuedRequests / QueuedTokens are the CURRENT queue-bound usage
	// (admitted, not yet dispatched into a wave; deferred handles stay
	// counted until they dispatch or finish), not totals.
	QueuedRequests, QueuedTokens int
	// TokensPerSecond is generation throughput over busy (in-wave) time,
	// failed waves included.
	TokensPerSecond float64
	// Data-movement totals across all waves (bytes / pages).
	HtoDBytes, DtoHBytes, PagesMoved int64
	// Expert weight-paging totals across all waves: bytes of expert
	// blocks fetched into the residency pool, and the warm-hit/miss
	// split of expert acquisitions.
	WeightBytesFetched       int64
	ExpertHits, ExpertMisses int64
}

// Stats snapshots the server's serving metrics.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	if s.ttft != nil {
		st.AvgTTFT = s.ttft.Mean()
		st.TTFTP50 = s.ttft.Quantile(0.50)
		st.TTFTP95 = s.ttft.Quantile(0.95)
		st.TTFTP99 = s.ttft.Quantile(0.99)
	}
	if s.tpot != nil {
		st.AvgTPOT = s.tpot.Mean()
		st.TPOTP50 = s.tpot.Quantile(0.50)
		st.TPOTP95 = s.tpot.Quantile(0.95)
		st.TPOTP99 = s.tpot.Quantile(0.99)
	}
	if s.prefillTime > 0 {
		st.PrefillTokensPerSecond = float64(st.PrefillTokens) / s.prefillTime.Seconds()
	}
	if handled := st.PrefixHitTokens + st.PrefillTokens; handled > 0 {
		st.PrefixHitRatio = float64(st.PrefixHitTokens) / float64(handled)
	}
	if s.busy > 0 {
		st.TokensPerSecond = float64(st.GeneratedTokens) / s.busy.Seconds()
	}
	return st
}

// observe records d into h, allocating the latency histogram on first
// use: a server that never streams a token never pays for one.
func observe(h *metrics.Histogram, d time.Duration) *metrics.Histogram {
	if h == nil {
		h = metrics.NewLatencyHistogram()
	}
	h.Observe(d)
	return h
}

// finalize finishes a handle and folds its outcome into the stats: the
// single entry to the handle's finished state. The handle settles
// first, so the outcome read below is final; its waiters wake last, so
// whoever returns from Wait finds the request in Stats.
func (s *Server) finalize(h *Handle, err error) {
	if h.settle(err) {
		defer h.wake() // after the fold, and after s.mu is released
	}
	h.mu.Lock()
	n := len(h.out)
	ttft := h.firstTok.Sub(h.item.Submitted)
	span := h.lastTok.Sub(h.firstTok)
	h.mu.Unlock()
	var tpot time.Duration
	if n > 1 {
		tpot = span / time.Duration(n-1)
	}
	slo := h.item.SLO

	s.mu.Lock()
	defer s.mu.Unlock()
	s.dequeueLocked(h)
	canceled := false
	switch {
	case err == nil:
		s.stats.Completed++
	case errors.Is(err, ErrCanceled):
		s.stats.Canceled++
		canceled = true
	default:
		s.stats.Failed++
	}
	if h.item.Deferrals > 0 {
		s.stats.Deferred++
	}
	s.stats.GeneratedTokens += n
	if n > 0 {
		s.ttft = observe(s.ttft, ttft)
	}
	if n > 1 {
		s.tpot = observe(s.tpot, tpot)
	}
	// SLO attainment: judged for every finished SLO-carrying request
	// except canceled ones (the client walked away mid-flight — the
	// server neither met nor missed). A failed request, or one whose
	// first token never came, blows its TTFT budget by definition.
	if slo.IsZero() || canceled {
		return
	}
	s.stats.SLORequests++
	missTTFT := slo.TTFT > 0 && (n == 0 || ttft > slo.TTFT)
	missTTFT = missTTFT || (err != nil && !canceled)
	missTPOT := slo.TPOT > 0 && n > 1 && tpot > slo.TPOT
	if missTTFT {
		s.stats.SLOMissTTFT++
	}
	if missTPOT {
		s.stats.SLOMissTPOT++
	}
	if !missTTFT && !missTPOT {
		s.stats.SLOMet++
	}
}

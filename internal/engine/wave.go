package engine

import (
	"fmt"
	"time"

	"moelightning/internal/workload"
)

// runWave plans one wave over the pending requests (PlanWave), runs the
// placed ones on the server's pipeline, and returns the deferred
// remainder in the order it heads the next boundary's queue. Every
// handle it does not return is finished (completed, canceled or
// failed). Time spent from dispatch on is busy time however the wave
// ends.
func (s *Server) runWave(pending []*Handle) []*Handle {
	s.mu.Lock()
	broken := s.broken
	s.mu.Unlock()
	if broken != nil {
		// A wedged wave still holds the pipeline: no further wave can run.
		// Fail everything still pending with the watchdog's error.
		s.failAll(pending, broken)
		return nil
	}
	items := make([]AdmissionItem, len(pending))
	for i, h := range pending {
		items[i] = h.item
	}
	plan, err := PlanWave(items, time.Now(), s.cfg.AdmissionPolicy, batchConfig(s.cfg, s.pl.w.Cfg.KVDim()))
	if err != nil {
		s.failAll(pending, err)
		return nil
	}
	if len(plan.MicroBatches) == 0 {
		s.failAll(pending, fmt.Errorf("engine: no request fits any micro-batch: %s", s.describeHandles(pending)))
		return nil
	}
	// The wave's sequences are the placed handles in placement order;
	// the run's partition indexes into that order.
	var wave []*Handle
	partition := make([][]int, len(plan.MicroBatches))
	for j, mb := range plan.MicroBatches {
		for _, i := range mb {
			partition[j] = append(partition[j], len(wave))
			wave = append(wave, pending[i])
		}
	}
	deferred := make([]*Handle, len(plan.Deferred))
	s.mu.Lock()
	for k, i := range plan.Deferred {
		h := pending[i]
		// Take over the deferral PlanWave counted. Only these two fields
		// ever change after Submit: clients may read the rest (ID,
		// Request) from any goroutine.
		h.item.Deferrals, h.item.DeferredWith = items[i].Deferrals, items[i].DeferredWith
		s.stats.MaxDeferrals = max(s.stats.MaxDeferrals, h.item.Deferrals)
		deferred[k] = h
	}
	waveNum := s.stats.Waves + 1
	// The wave's handles leave the queue bounds now — they occupy wave
	// capacity, not queue capacity. Deferred handles stay counted.
	for _, h := range wave {
		s.dequeueLocked(h)
	}
	s.mu.Unlock()
	if plan.NoProgress {
		// Starved: fail them instead of deferring forever.
		s.failAll(deferred, fmt.Errorf("%w: %s", ErrNoProgress, s.describeHandles(deferred)))
		deferred = nil
	}

	start := time.Now()
	outcomes, err := s.execWave(waveNum, wave, partition)
	// Busy time and the wave count are folded before any handle of the
	// wave finishes: a client that saw its request finish reads stats
	// that already cover the wave that served it.
	s.mu.Lock()
	s.busy += time.Since(start)
	if err == nil {
		s.stats.Waves++
	}
	s.mu.Unlock()
	if err != nil {
		s.failAll(wave, err)
		s.failAll(deferred, err)
		return nil
	}
	for i, h := range wave {
		s.finalize(h, outcomes[i])
	}
	return deferred
}

// execWave runs one planned wave end to end — run it on the server's
// pipeline under the watchdog, audit the KV pool, fold its prompt phase
// — and returns each handle's terminal error (nil for a completed
// request) for the caller to finalize. A non-nil error means the wave
// as a whole failed.
func (s *Server) execWave(waveNum int, wave []*Handle, partition [][]int) ([]error, error) {
	tokens, abandoned, gerr := s.generate(waveNum, wave, partition)
	if abandoned {
		return nil, gerr
	}
	s.auditWave(waveNum)
	if gerr != nil {
		return nil, fmt.Errorf("engine: wave %d: %w", waveNum, gerr)
	}
	outcomes := make([]error, len(wave))
	for i, h := range wave {
		h.mu.Lock()
		hopeless := h.tpotHopeless
		h.mu.Unlock()
		switch {
		case s.pl.SeqErr(i) != nil:
			// Request-scoped failure: the sequence hit KV-pool exhaustion
			// or an unrecoverable expert fetch and was retired (its blocks
			// went back to the survivors), so only this request fails; the
			// wave and its other requests are unaffected.
			outcomes[i] = fmt.Errorf("engine: wave %d: request %d: %w", waveNum, h.ID(), s.pl.SeqErr(i))
		case hopeless:
			s.mu.Lock()
			s.stats.DeadlineDropped++
			s.mu.Unlock()
			outcomes[i] = fmt.Errorf("engine: request %d: TPOT budget (%v) irrecoverable after %d tokens: %w",
				h.ID(), h.item.SLO.TPOT, len(tokens[i]), ErrDeadlineExceeded)
		case len(tokens[i]) < h.genLen && h.canceled():
			outcomes[i] = ErrCanceled
		}
	}
	return outcomes, nil
}

// generate streams the wave's tokens to its handles under the watchdog:
// the run executes in its own goroutine so a stall (a stuck fetch, a
// wedged kernel) cannot hang the admission loop — and Close() with it —
// forever. abandoned reports that the wave ignored the abort and was
// left behind with the server marked broken; err is then the error to
// fail its handles with, and the pipeline must not be touched again.
func (s *Server) generate(waveNum int, wave []*Handle, partition [][]int) (tokens [][]int, abandoned bool, err error) {
	pl := s.pl
	reqs := make([]workload.Request, len(wave))
	for i, h := range wave {
		reqs[i] = h.item.Req
	}
	prompts := PromptsFromRequests(reqs, pl.w.Cfg.VocabSize)
	sink := func(seq, index, token int) { wave[seq].push(index, token) }
	stop := func(seq, emitted int) bool {
		h := wave[seq]
		if h.canceled() || emitted >= h.genLen {
			return true
		}
		// TPOT guard: once the time already spent decoding exceeds the
		// request's whole TPOT budget for its full generation, no pace of
		// remaining steps can recover it — retire the sequence through the
		// normal stop path (its KV blocks free, survivors bit-identical)
		// instead of burning wave capacity on a blown deadline.
		if tpot := h.item.SLO.TPOT; s.cfg.TPOTGuard && tpot > 0 && emitted >= 2 {
			h.mu.Lock()
			hopeless := h.lastTok.Sub(h.firstTok) > tpot*time.Duration(h.genLen-1)
			if hopeless {
				h.tpotHopeless = true
			}
			h.mu.Unlock()
			return hopeless
		}
		return false
	}

	type waveResult struct {
		tokens [][]int
		err    error
	}
	resCh := make(chan waveResult, 1)
	// Armed here, before the run starts, on the goroutine that alone
	// aborts it: the watchdog's abort lands on this wave, never a stale one.
	pl.armAbort()
	go func() {
		toks, gerr := pl.Run(prompts, partition, s.cfg.GenLen, sink, stop)
		resCh <- waveResult{toks, gerr}
	}()
	if s.cfg.WaveTimeout <= 0 {
		res := <-resCh
		return res.tokens, false, res.err
	}
	timer := time.NewTimer(s.cfg.WaveTimeout)
	select {
	case res := <-resCh:
		timer.Stop()
		return res.tokens, false, res.err
	case <-timer.C:
	}
	// Phase 1: cooperative abort. The pipeline checks the abort at every
	// pass boundary, prompt pass or decode step (and mid-stall), so a
	// slow-but-alive wave returns promptly with the abort error.
	werr := fmt.Errorf("engine: wave %d exceeded the %v watchdog: %w",
		waveNum, s.cfg.WaveTimeout, ErrWaveStalled)
	pl.Abort(werr)
	grace := time.NewTimer(s.cfg.WaveTimeout + time.Second)
	select {
	case res := <-resCh:
		grace.Stop()
		if res.err == nil {
			res.err = werr
		}
		s.mu.Lock()
		s.stats.WaveTimeouts++
		s.mu.Unlock()
		return res.tokens, false, res.err
	case <-grace.C:
	}
	// Phase 2: the wave ignored the abort — it is wedged INSIDE a step.
	// Abandon the pipeline goroutine (pl.Close would block on its lanes)
	// and mark the server broken: the pipeline belongs to the wedged wave,
	// so later submits and waves fail fast instead of hanging. settle()
	// and the push() guard keep the abandoned goroutine from touching
	// the failed handles if it ever unwedges.
	s.mu.Lock()
	s.stats.WaveTimeouts++
	s.broken = werr
	if s.firstErr == nil {
		s.firstErr = werr
	}
	s.mu.Unlock()
	return nil, true, werr
}

// auditWave is the end-of-wave KV audit and prompt-phase fold. Every
// sequence must have released its blocks (completion, retirement and
// the abort path all do; ReleaseAll is a no-op then). A leak is counted
// and the cache reset to empty, so it costs this wave alone instead of
// shrinking every later one. The pipeline's counters are cumulative
// and Stats reads them in place; only the run's own prompt phase folds.
func (s *Server) auditWave(waveNum int) {
	pl := s.pl
	pl.ReleaseAll()
	lerr := pl.KVIdle()
	if lerr != nil {
		pl.cache.Reset()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if lerr != nil {
		s.stats.KVLeaks++
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("engine: wave %d: %w", waveNum, lerr)
		}
	}
	s.stats.PrefillTokens += pl.PrefillTokens
	s.prefillTime += pl.PrefillDuration
}

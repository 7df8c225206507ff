package engine

import (
	"fmt"
	"time"

	"moelightning/internal/workload"
)

// runWave plans one wave over the pending requests (PlanWave), runs the
// placed ones through a pipeline, and returns the deferred remainder in
// the order it heads the next boundary's queue. Every handle it does
// not return is finished (completed, canceled or failed). Time spent
// from dispatch on is busy time however the wave ends.
func (s *Server) runWave(pending []*Handle) []*Handle {
	s.mu.Lock()
	broken := s.broken
	s.mu.Unlock()
	if broken != nil {
		// A wedged wave already abandoned the arenas: no further wave can
		// run. Fail everything still pending with the watchdog's error.
		s.failAll(pending, broken)
		return nil
	}
	items := make([]AdmissionItem, len(pending))
	for i, h := range pending {
		items[i] = h.item
	}
	plan, err := PlanWave(items, time.Now(), s.cfg.AdmissionPolicy, batchConfig(s.cfg, s.host.W.Cfg.KVDim()))
	if err != nil {
		s.failAll(pending, err)
		return nil
	}
	if len(plan.MicroBatches) == 0 {
		s.failAll(pending, fmt.Errorf("engine: no request fits any micro-batch: %s", s.describeHandles(pending)))
		return nil
	}
	// The wave's sequences are the placed handles in placement order;
	// the pipeline's partition indexes into that order.
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

// execWave runs one planned wave end to end — build the pipeline,
// generate under the watchdog, close and audit it, fold its counters —
// and returns each handle's terminal error (nil for a completed
// request) for the caller to finalize. A non-nil error means the wave
// as a whole failed.
func (s *Server) execWave(waveNum int, wave []*Handle, partition [][]int) ([]error, error) {
	pl, err := s.buildPipeline(len(wave), partition)
	if err != nil {
		return nil, fmt.Errorf("engine: wave %d: %w", waveNum, err)
	}
	tokens, abandoned, gerr := s.generate(pl, waveNum, wave)
	if abandoned {
		return nil, gerr
	}
	pl.Close() // stops the lanes and the expert prefetcher (waiting out a copy in flight) first, so the counters below are final
	s.auditWave(pl, waveNum)
	if gerr != nil {
		return nil, fmt.Errorf("engine: wave %d: %w", waveNum, gerr)
	}
	outcomes := make([]error, len(wave))
	for i, h := range wave {
		h.mu.Lock()
		hopeless := h.tpotHopeless
		h.mu.Unlock()
		switch {
		case pl.SeqErr(i) != nil:
			// Request-scoped failure: the sequence hit KV-pool exhaustion
			// or an unrecoverable expert fetch and was retired (its blocks
			// went back to the survivors), so only this request fails; the
			// wave and its other requests are unaffected.
			outcomes[i] = fmt.Errorf("engine: wave %d: request %d: %w", waveNum, h.ID(), pl.SeqErr(i))
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

// buildPipeline is the one place the serving path constructs an
// engine: it reclaims the host's wave arenas and builds a pipeline for
// numSeqs sequences from the server's engine Config and the wave's
// partition.
func (s *Server) buildPipeline(numSeqs int, partition [][]int) (*Pipeline, error) {
	s.host.GPU.Reset()
	s.host.Pinned.Reset()
	s.host.Cache.Reset()
	cfg := s.cfg.Config
	cfg.Partition = partition
	return NewPipeline(s.host.W, s.host.GPU, s.host.Pinned, s.host.Cache, numSeqs, cfg)
}

// generate streams the wave's tokens to its handles under the watchdog:
// GenerateStream executes in its own goroutine so a stall (a stuck
// fetch, a wedged kernel) cannot hang the admission loop — and Close()
// with it — forever. abandoned reports that the wave ignored the abort
// and was left behind with the server marked broken; err is then the
// error to fail its handles with, and the pipeline must not be touched.
func (s *Server) generate(pl *Pipeline, waveNum int, wave []*Handle) (tokens [][]int, abandoned bool, err error) {
	reqs := make([]workload.Request, len(wave))
	for i, h := range wave {
		reqs[i] = h.item.Req
	}
	prompts := PromptsFromRequests(reqs, s.cfg.Vocab)
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
	go func() {
		toks, gerr := pl.GenerateStream(prompts, s.cfg.GenLen, sink, stop)
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
	// and mark the server broken: the arenas belong to the wedged wave,
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

// auditWave is the end-of-wave KV audit and counter fold. Every
// sequence must have released its blocks (completion, retirement and
// the abort path all do; ReleaseAll is a no-op then): a leak would
// silently shrink every later wave.
func (s *Server) auditWave(pl *Pipeline, waveNum int) {
	pl.ReleaseAll()
	lerr := pl.KVIdle()
	c, ep := &pl.Counters, &pl.Counters.ExpertPaging
	s.mu.Lock()
	defer s.mu.Unlock()
	if lerr != nil {
		s.stats.KVLeaks++
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("engine: wave %d: %w", waveNum, lerr)
		}
	}
	s.stats.HtoDBytes += c.HtoDBytes.Load()
	s.stats.DtoHBytes += c.DtoHBytes.Load()
	s.stats.PagesMoved += c.PagesMoved.Load()
	s.stats.WeightBytesFetched += ep.BytesFetched.Load()
	s.stats.ExpertHits += ep.Hits.Load()
	s.stats.ExpertMisses += ep.Misses.Load()
	s.stats.FaultRetries += ep.FetchRetries.Load()
	s.stats.FaultFailures += ep.FetchFailures.Load()
	s.stats.PrefillTokens += pl.PrefillTokens
	s.stats.PrefixHitTokens += int(c.PrefixHitTokens.Load())
	s.stats.CowCopies += c.CowCopies.Load()
	s.prefillTime += pl.PrefillDuration
}

package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"moelightning/internal/workload"
)

// runWave plans one wave over the pending requests (PlanWave; each fits
// an empty micro-batch, so the plan places at least one), runs the
// placed ones on the server's pipeline under the wave's deadline, audits
// the KV pool and finalizes every placed handle, and returns the
// deferred remainder in the order it heads the next boundary's queue.
// Every handle it does not return is finished (completed, canceled or
// failed). Time spent from dispatch on is busy time however the wave
// ends.
func (s *Server) runWave(pending []*Handle) []*Handle {
	items := make([]AdmissionItem, len(pending))
	for i, h := range pending {
		items[i] = h.item
	}
	plan, err := PlanWave(items, time.Now(), s.bc)
	if err != nil {
		s.failAll(pending, err)
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
		// Take over the deferral PlanWave counted. Only this field ever
		// changes after Submit: clients may read the rest (ID, Request)
		// from any goroutine.
		h.item.Deferrals = items[i].Deferrals
		s.stats.MaxDeferrals = max(s.stats.MaxDeferrals, h.item.Deferrals)
		deferred[k] = h
	}
	waveNum := s.stats.Waves + 1
	// The wave's handles leave the queue now — they occupy wave
	// capacity, not queue capacity. Deferred handles stay counted.
	for _, h := range wave {
		s.dequeueLocked(h)
	}
	s.mu.Unlock()

	start := time.Now()
	reqs := make([]workload.Request, len(wave))
	for i, h := range wave {
		reqs[i] = h.item.Req
	}
	sink := func(seq, index, token int) { wave[seq].push(index, token) }
	stop := func(seq, emitted int) bool {
		h := wave[seq]
		return h.canceled() || emitted >= h.genLen
	}
	ctx := context.Background()
	if s.cfg.WaveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.cfg.WaveTimeout,
			fmt.Errorf("exceeded WaveTimeout %v: %w", s.cfg.WaveTimeout, ErrWaveStalled))
		defer cancel()
	}
	tokens, err := s.pl.Run(ctx, PromptsFromRequests(reqs, s.pl.w.Cfg.VocabSize), partition, s.cfg.GenLen, sink, stop)
	if err == nil && ctx.Err() != nil {
		// The deadline passed after the last pass boundary: the wave
		// still failed it.
		err = context.Cause(ctx)
	}

	// The KV audit, on every return: every sequence must have released
	// its blocks (completion, retirement and a failed run all do;
	// ReleaseAll is a no-op then). A leak is counted and the cache reset
	// to empty, so it costs this wave alone instead of shrinking every
	// later one. The pipeline's counters are cumulative and Stats reads
	// them in place; only the run's own prompt phase folds. So do busy
	// time and the wave count, before any handle of the wave finishes: a
	// client that saw its request finish reads stats that already cover
	// the wave that served it.
	s.pl.ReleaseAll()
	lerr := s.pl.KVIdle()
	if lerr != nil {
		s.pl.cache.Reset()
	}
	s.mu.Lock()
	s.busy += time.Since(start)
	if lerr != nil {
		s.stats.KVLeaks++
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("engine: wave %d: %w", waveNum, lerr)
		}
	}
	s.stats.PrefillTokens += s.pl.PrefillTokens
	s.prefillTime += s.pl.PrefillDuration
	switch {
	case err == nil:
		s.stats.Waves++
	case errors.Is(err, ErrWaveStalled):
		s.stats.WaveTimeouts++
	}
	s.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("engine: wave %d: %w", waveNum, err)
		s.failAll(wave, err)
		s.failAll(deferred, err)
		return nil
	}

	for i, h := range wave {
		var herr error
		switch {
		case s.pl.SeqErr(i) != nil:
			// Request-scoped failure: the sequence hit KV-pool exhaustion
			// or an unrecoverable expert fetch and was retired (its blocks
			// went back to the survivors), so only this request fails; the
			// wave and its other requests are unaffected.
			herr = fmt.Errorf("engine: wave %d: request %d: %w", waveNum, h.ID(), s.pl.SeqErr(i))
		case len(tokens[i]) < h.genLen && h.canceled():
			herr = ErrCanceled
		}
		s.finalize(h, herr)
	}
	return deferred
}

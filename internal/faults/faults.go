// Package faults is the engine's deterministic fault injector: a
// seeded source of failures threaded through the seams the serving
// stack already has, so chaos runs and robustness tests exercise the
// exact recovery paths production would take — with reproducible
// timing and placement.
//
// # Injection-point inventory
//
// The injector is consulted at three seams:
//
//   - Expert-pager fetches (ExpertFetch): the pager consults the hook
//     inside every block fetch — demand fetches on the compute path
//     and the prefetches the step graph runs on its Pin lane alike. A
//     fired fault makes that fetch attempt fail; the pager retries with
//     capped exponential backoff and, if the fault persists past the
//     retry budget, surfaces an error that retires only the sequences
//     routed to the failed expert (the engine's per-sequence isolation
//     path).
//   - KV block allocation (KVAlloc): the cache consults the hook on
//     every physical block allocation. A fired fault makes the
//     allocation behave exactly like pool exhaustion, driving the
//     engine's existing kvcache.ErrOutOfBlocks retirement machinery
//     on a chosen allocation ordinal instead of requiring a test to
//     actually fill the pool.
//   - Wave latency stalls (Stall): the pipeline calls the stall point
//     once per pass of its step graph, before every prompt pass and
//     every decode step. A fired stall blocks — for StallFor, or until
//     the test-controlled Gate closes — and always wakes when the run's
//     context is done, so a wave's deadline (the server's WaveTimeout)
//     ends a stalled wave.
//
// A nil *Injector is inert: every seam calls its methods
// unconditionally and a nil receiver fires nothing, so production
// paths carry no fault plumbing beyond the call.
package faults

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected marks failures manufactured by the injector, so tests
// and chaos reports can tell injected faults from organic ones.
var ErrInjected = errors.New("faults: injected fault")

// Config parameterizes an Injector. The zero value injects nothing.
type Config struct {
	// Seed seeds the injector's private RNG; equal seeds and equal
	// call sequences produce equal fault placements.
	Seed int64
	// ExpertFetchRate is the per-attempt probability ([0,1]) that an
	// expert-block fetch attempt fails.
	ExpertFetchRate float64
	// ExpertFetchBurst makes each fired expert-fetch fault persist for
	// this many consecutive attempts (<= 0 means 1): a burst longer
	// than the pager's retry budget turns a transient fault into a
	// permanent one.
	ExpertFetchBurst int
	// ExpertFetchMax caps how many expert-fetch attempts fail in
	// total (0 = unlimited) — e.g. rate 1 with max 3 fails exactly the
	// first three attempts and then heals.
	ExpertFetchMax int
	// KVAllocFailAt lists 1-based KV block-allocation ordinals to
	// force-fail, counted across the injector's lifetime (so across
	// waves when the engine shares one injector).
	KVAllocFailAt []int
	// StallEvery fires a stall at every Nth stall point (0 = never).
	StallEvery int
	// StallFor is how long a fired stall blocks when no Gate is set.
	StallFor time.Duration
	// Gate, when non-nil, makes every fired stall block until the
	// channel closes (or the run's context is done) instead of sleeping
	// StallFor — deterministic control for tests that need a wave held
	// exactly at a boundary.
	Gate <-chan struct{}
	// OnStall, when non-nil, is called as each fired stall begins
	// blocking (before the wait), so a test holding the Gate knows the
	// wave has reached the stall point.
	OnStall func()
}

// Stats is a snapshot of injector activity.
type Stats struct {
	// ExpertFetchTrials / ExpertFetchFaults count expert-fetch hook
	// consultations and how many of them fired.
	ExpertFetchTrials, ExpertFetchFaults int
	// KVAllocs / KVAllocFaults count KV allocation hook consultations
	// and forced failures.
	KVAllocs, KVAllocFaults int
	// StallPoints / Stalls count stall-point consultations and fired
	// stalls.
	StallPoints, Stalls int
}

// Injector is a concurrency-safe deterministic fault source. Build one
// with New and hand it to the engine (ServeConfig.Faults); a nil
// injector is valid and injects nothing.
type Injector struct {
	mu          sync.Mutex
	cfg         Config
	rng         *rand.Rand
	burstLeft   int
	kvFailAt    map[int]bool
	stats       Stats
	fetchFaults int
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	if cfg.ExpertFetchBurst <= 0 {
		cfg.ExpertFetchBurst = 1
	}
	inj := &Injector{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		kvFailAt: make(map[int]bool, len(cfg.KVAllocFailAt)),
	}
	for _, n := range cfg.KVAllocFailAt {
		inj.kvFailAt[n] = true
	}
	return inj
}

// ExpertFetch is the expert-pager fetch hook: it returns ErrInjected
// when this fetch attempt should fail. Nil receivers never fire.
func (i *Injector) ExpertFetch() error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.stats.ExpertFetchTrials++
	fire := false
	switch {
	case i.cfg.ExpertFetchMax > 0 && i.fetchFaults >= i.cfg.ExpertFetchMax:
	case i.burstLeft > 0:
		i.burstLeft--
		fire = true
	case i.cfg.ExpertFetchRate > 0 && i.rng.Float64() < i.cfg.ExpertFetchRate:
		i.burstLeft = i.cfg.ExpertFetchBurst - 1
		fire = true
	}
	if !fire {
		return nil
	}
	i.fetchFaults++
	i.stats.ExpertFetchFaults++
	return ErrInjected
}

// KVAlloc is the cache allocation hook: it returns ErrInjected when
// the current allocation ordinal (1-based, lifetime-counted) is listed
// in KVAllocFailAt. Nil receivers never fire.
func (i *Injector) KVAlloc() error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.stats.KVAllocs++
	if i.kvFailAt[i.stats.KVAllocs] {
		i.stats.KVAllocFaults++
		return ErrInjected
	}
	return nil
}

// Stall is the wave latency seam: at every Nth stall point it blocks —
// until the Gate closes when one is configured, else for StallFor —
// returning early if done closes first (the run's ctx.Done()). done may
// be nil.
func (i *Injector) Stall(done <-chan struct{}) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.stats.StallPoints++
	fire := i.cfg.StallEvery > 0 && i.stats.StallPoints%i.cfg.StallEvery == 0
	if fire {
		i.stats.Stalls++
	}
	gate, onStall, dur := i.cfg.Gate, i.cfg.OnStall, i.cfg.StallFor
	i.mu.Unlock()
	if !fire {
		return
	}
	if onStall != nil {
		onStall()
	}
	if gate != nil {
		select {
		case <-gate:
		case <-done:
		}
		return
	}
	if dur <= 0 {
		return
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

// Stats snapshots the injector's activity counters. Nil receivers
// return zeros.
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

package paging

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"moelightning/internal/memory"
)

// ExpertKey identifies one expert FFN weight block: expert Expert of
// model layer Layer. The pager keys on real layers, so a block fetched
// during one decode step stays warm for every later step (and every
// other micro-batch) that routes to it.
type ExpertKey struct {
	Layer, Expert int
}

// Stats counts expert-pager traffic. The engine embeds it in its
// Counters block and hands the pager a pointer, so pager activity shows
// up next to the page/byte counters tests and serving stats already
// read.
type Stats struct {
	// Hits counts Acquires served from the resident set — including
	// blocks whose prefetch another goroutine still had in flight.
	// Misses counts Acquires that found nothing and demand-fetched
	// synchronously.
	Hits, Misses atomic.Int64
	// Prefetched counts blocks Prefetch fetched; Evicted counts resident
	// blocks displaced to make room.
	Prefetched, Evicted atomic.Int64
	// BytesFetched is the fast-memory weight traffic of every block
	// fetch, demand or prefetch: each fetch copies the block once, from
	// its CPU home into its fast-memory slot.
	BytesFetched atomic.Int64
	// FetchRetries counts fetch attempts that failed transiently and
	// were retried (with capped exponential backoff); FetchFailures
	// counts fetches abandoned after exhausting the retry budget.
	FetchRetries, FetchFailures atomic.Int64
}

// Source resolves a key to the block's CPU home region. It must be safe
// to call from the goroutines that Acquire and Prefetch concurrently.
type Source func(k ExpertKey) memory.Region

// expertEntry is the pager's bookkeeping for one resident (or loading)
// block.
type expertEntry struct {
	slot    int
	loading bool
	ready   chan struct{} // closed once the slot holds the block
	refs    int           // pins by in-flight kernels
	freq    int64         // lifetime acquire count (frequency)
	tick    int64         // last-touch tick (recency)
	err     error         // terminal fetch failure, set before ready closes
}

// ExpertPager keeps a fixed-size resident set of expert weight blocks
// in fast memory: Acquire pins a block (demand-fetching synchronously
// on a miss, so callers always get correct data — a small residency
// only ever costs time), Release unpins it, and Prefetch copies keys in
// on the calling goroutine. A fetch is one copy, from the block's CPU
// home straight into its slot: a slot is written only by the single
// fetch that claimed it, and nobody reads it until that fetch has
// landed, so fetches need no lock and no staging. The pager starts no
// goroutine of its own: when a copy runs is the caller's schedule, and
// the engine runs them as tasks of its step graph, on the Pin lane, while
// its GPU lane computes.
//
// Eviction follows the schedule the caller announces. Layers are
// visited in a fixed cyclic order, and BeginLayer says which one starts
// computing; the victim is the unpinned resident block whose layer
// comes up furthest ahead in that order, so the layer that just
// finished goes first, and the announced layer and the one prefetched
// behind it go last. Inside one layer the victim minimizes last-touch
// tick plus lifetime acquire count: LRU, with each reuse extending a
// hot expert's lifetime. A prefetch never displaces a block needed
// strictly sooner than the one it brings; a demand fetch takes the
// furthest block whatever its layer, because the kernel is waiting.
// With a pool of two layers' blocks and the next layer prefetched when
// a layer starts, every block is therefore fetched once per pass
// through the layers. Until a layer is announced every block ties and
// the rule is the in-layer one alone.
type ExpertPager struct {
	floats int
	src    Source
	stats  *Stats
	slots  []memory.Region // fast-memory residency slots

	mu      sync.Mutex
	entries map[ExpertKey]*expertEntry
	free    []int
	tick    int64

	// cur is the layer announced by BeginLayer in a cycle of `cycle`
	// layers; cycle 0 means none was announced yet.
	cur, cycle int

	// fault, when set, is consulted inside every fetch attempt; a
	// non-nil return fails that attempt (fetch retries with backoff
	// before giving up). Install it before serving traffic.
	fault func() error
}

// NewExpertPager carves numSlots expert-sized slots out of the fast
// arena. stats may be nil. pinned is ignored (nil is fine): a fetch
// copies straight into its slot. The parameter stays because the
// standing benchmark's paging probes (bench/probes.go) pass it, until
// ROADMAP item 7 revises that frozen code.
func NewExpertPager(fast, pinned *memory.Arena, expertFloats, numSlots int, src Source, stats *Stats) (*ExpertPager, error) {
	if expertFloats <= 0 || numSlots <= 0 {
		return nil, fmt.Errorf("paging: invalid expert pager %d floats / %d slots", expertFloats, numSlots)
	}
	if stats == nil {
		stats = &Stats{}
	}
	p := &ExpertPager{
		floats:  expertFloats,
		src:     src,
		stats:   stats,
		entries: make(map[ExpertKey]*expertEntry, numSlots),
	}
	for i := 0; i < numSlots; i++ {
		r, err := fast.Alloc(expertFloats)
		if err != nil {
			return nil, fmt.Errorf("paging: expert slot %d: %w", i, err)
		}
		p.slots = append(p.slots, r)
		p.free = append(p.free, i)
	}
	return p, nil
}

// Slots returns the residency pool size in blocks.
func (p *ExpertPager) Slots() int { return len(p.slots) }

// Close does nothing: the pager starts no goroutine and holds nothing
// that needs releasing. It stays because the standing benchmark's
// paging probes (bench/probes.go) call it, until ROADMAP item 7 revises
// that frozen code.
func (p *ExpertPager) Close() {}

// BeginLayer announces that layer `layer`, of a model whose layers are
// visited cyclically 0..layers-1, starts computing: from now on its
// blocks are the ones needed soonest and the previous layer's the ones
// needed last. Call it once per layer, before prefetching the next one.
func (p *ExpertPager) BeginLayer(layer, layers int) {
	p.mu.Lock()
	p.cur, p.cycle = layer, layers
	p.mu.Unlock()
}

// aheadLocked is how many layers from now layer comes up: 0 for the
// announced layer, cycle-1 for the one just finished.
func (p *ExpertPager) aheadLocked(layer int) int {
	if p.cycle <= 0 {
		return 0
	}
	return ((layer-p.cur)%p.cycle + p.cycle) % p.cycle
}

// SetFetchFault installs (or, with nil, removes) a fault hook
// consulted inside every fetch attempt: a non-nil return fails that
// attempt, and fetch retries with capped exponential backoff before
// abandoning the fetch. Install it before the first Acquire/Prefetch;
// the hook must be safe to call from the goroutines that Acquire and
// Prefetch concurrently.
func (p *ExpertPager) SetFetchFault(hook func() error) {
	p.mu.Lock()
	p.fault = hook
	p.mu.Unlock()
}

// Acquire returns expert k's weight block in fast memory, pinned
// against eviction until the matching Release. A resident (or
// in-flight) block is a warm hit; a cold block demand-fetches
// synchronously on the calling goroutine — the fallback that keeps
// output bit-identical for any residency size. A fetch that fails past
// the retry budget returns the fetch error: the failed entry is
// dropped and its slot freed, so a later Acquire of the same key
// retries from scratch (a transient outage heals; only the sequences
// routed to the expert during the outage are affected).
func (p *ExpertPager) Acquire(k ExpertKey) ([]float32, error) {
	p.mu.Lock()
	p.tick++
	for {
		if e, ok := p.entries[k]; ok {
			e.refs++
			e.freq++
			e.tick = p.tick
			slot, loading, ready := e.slot, e.loading, e.ready
			p.stats.Hits.Add(1)
			p.mu.Unlock()
			if loading {
				<-ready
				// e.err is written before ready closes; the close is the
				// happens-before edge that makes this lock-free read safe.
				if e.err != nil {
					return nil, e.err
				}
			}
			return p.slots[slot].Data(), nil
		}
		slot, ok := p.takeSlotLocked(0)
		if !ok {
			// Every slot is pinned or mid-fetch. Wait for any in-flight
			// fetch to land (its entry then becomes evictable) and retry.
			ch := p.anyLoadingLocked()
			p.mu.Unlock()
			if ch == nil {
				panic("paging: expert pager wedged: every slot is pinned")
			}
			<-ch
			p.mu.Lock()
			continue
		}
		p.stats.Misses.Add(1)
		err := p.loadLocked(k, slot, 1)
		p.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return p.slots[slot].Data(), nil
	}
}

// loadLocked enters k as loading into the claimed slot, pinned refs
// times, and fetches it with p.mu released, so Acquires of other keys
// proceed and Acquires of k wait on its ready channel. A failed fetch is
// unwound: the entry leaves the table, its slot returns to the free list,
// and waiters see the error (written before ready closes). Callers hold
// p.mu, and hold it again when it returns.
func (p *ExpertPager) loadLocked(k ExpertKey, slot, refs int) error {
	e := &expertEntry{slot: slot, loading: true, ready: make(chan struct{}), refs: refs, freq: 1, tick: p.tick}
	p.entries[k] = e
	p.mu.Unlock()
	err := p.fetch(k, slot)
	p.mu.Lock()
	if err != nil {
		e.err = err
		delete(p.entries, k)
		p.free = append(p.free, slot)
	}
	e.loading = false
	close(e.ready)
	return err
}

// Release unpins a block acquired with Acquire.
func (p *ExpertPager) Release(k ExpertKey) {
	p.mu.Lock()
	if e, ok := p.entries[k]; ok && e.refs > 0 {
		e.refs--
	}
	p.mu.Unlock()
}

// Resident reports whether k currently occupies a slot with its data
// fully landed (for tests and introspection).
func (p *ExpertPager) Resident(k ExpertKey) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[k]
	return ok && !e.loading
}

// Prefetch brings keys into the resident set, in order, on the calling
// goroutine, and returns once each has landed or been passed over: a key
// already resident or in flight is skipped, as is one that could only
// land by evicting a block needed sooner, or whose fetch fails (best
// effort — a routed-to key that did not land is demand-fetched by
// Acquire, which surfaces the error if the fault persists). The engine
// calls it from its Pin lane, one share of the next layer's predicted
// blocks per task, so the copies are tasks of the step graph.
func (p *ExpertPager) Prefetch(keys ...ExpertKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range keys {
		if _, ok := p.entries[k]; ok {
			continue
		}
		p.tick++
		slot, ok := p.takeSlotLocked(p.aheadLocked(k.Layer))
		if !ok {
			continue
		}
		if p.loadLocked(k, slot, 0) == nil {
			p.stats.Prefetched.Add(1)
		}
	}
}

// Fetch retry policy: a transiently failing fetch attempt (per the
// fault hook) is retried up to fetchRetryLimit times with exponential
// backoff from fetchBackoffBase capped at fetchBackoffCap. The budget
// is deliberately tight — a fetch sits on the decode critical path.
const (
	fetchRetryLimit  = 4
	fetchBackoffBase = 50 * time.Microsecond
	fetchBackoffCap  = 400 * time.Microsecond
)

// fetch copies block k from its CPU home into slot, once. The slot was
// claimed by this fetch alone, so no lock is held across the copy.
// Injected (or real) per-attempt failures retry with capped
// exponential backoff; exhausting the budget abandons the fetch with an
// error naming the block.
func (p *ExpertPager) fetch(k ExpertKey, slot int) error {
	p.mu.Lock()
	fault := p.fault
	p.mu.Unlock()
	backoff := fetchBackoffBase
	for attempt := 0; ; attempt++ {
		if fault != nil {
			if err := fault(); err != nil {
				if attempt >= fetchRetryLimit {
					p.stats.FetchFailures.Add(1)
					return fmt.Errorf("paging: expert block (layer %d, expert %d): fetch failed after %d retries: %w",
						k.Layer, k.Expert, fetchRetryLimit, err)
				}
				p.stats.FetchRetries.Add(1)
				time.Sleep(backoff)
				if backoff *= 2; backoff > fetchBackoffCap {
					backoff = fetchBackoffCap
				}
				continue
			}
		}
		memory.Copy(p.slots[slot], p.src(k))
		p.stats.BytesFetched.Add(4 * int64(p.floats))
		return nil
	}
}

// takeSlotLocked claims a slot: a free one if any, else it evicts the
// unpinned resident block whose layer comes up furthest ahead of the
// announced one, provided that is at least minAhead layers away (a
// prefetch passes the distance of the block it brings, a demand fetch
// 0). Inside a layer the victim minimizes tick+freq — LRU ordering,
// with every past acquire buying the block one tick of extra lifetime —
// and key order breaks what ties remain, so behavior is reproducible.
// Returns false when every slot is pinned, loading or needed sooner.
func (p *ExpertPager) takeSlotLocked(minAhead int) (int, bool) {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s, true
	}
	var victimKey ExpertKey
	var victim *expertEntry
	var bestAhead int
	var bestScore int64
	for k, e := range p.entries {
		if e.refs > 0 || e.loading {
			continue
		}
		ahead, score := p.aheadLocked(k.Layer), e.tick+e.freq
		if victim == nil || ahead > bestAhead || ahead == bestAhead &&
			(score < bestScore || score == bestScore && keyLess(k, victimKey)) {
			victim, victimKey, bestAhead, bestScore = e, k, ahead, score
		}
	}
	if victim == nil || bestAhead < minAhead {
		return 0, false
	}
	delete(p.entries, victimKey)
	p.stats.Evicted.Add(1)
	return victim.slot, true
}

// anyLoadingLocked returns the ready channel of any in-flight fetch.
func (p *ExpertPager) anyLoadingLocked() chan struct{} {
	for _, e := range p.entries {
		if e.loading {
			return e.ready
		}
	}
	return nil
}

func keyLess(a, b ExpertKey) bool {
	if a.Layer != b.Layer {
		return a.Layer < b.Layer
	}
	return a.Expert < b.Expert
}

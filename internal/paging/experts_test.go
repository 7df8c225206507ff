package paging

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"moelightning/internal/memory"
)

// testSource builds a CPU home for nLayers x nExperts blocks of size
// floats, each filled with a per-key signature so any fetch's payload
// identifies which block it came from.
func testSource(t testing.TB, nLayers, nExperts, floats int) Source {
	t.Helper()
	cpu := memory.NewArena("cpu", nLayers*nExperts*floats)
	homes := make(map[ExpertKey]memory.Region, nLayers*nExperts)
	for l := 0; l < nLayers; l++ {
		for e := 0; e < nExperts; e++ {
			r, err := cpu.Alloc(floats)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := 0, r.Data(); i < floats; i++ {
				d[i] = signature(ExpertKey{Layer: l, Expert: e}, i)
			}
			homes[ExpertKey{Layer: l, Expert: e}] = r
		}
	}
	return func(k ExpertKey) memory.Region { return homes[k] }
}

func signature(k ExpertKey, i int) float32 {
	return float32(k.Layer*1000+k.Expert*10) + float32(i%7)
}

func checkBlock(t *testing.T, k ExpertKey, data []float32) {
	t.Helper()
	for i, v := range data {
		if v != signature(k, i) {
			t.Fatalf("block %v byte %d: got %v, want %v", k, i, v, signature(k, i))
		}
	}
}

// mustAcquire is Acquire for the fault-free tests: any fetch error is
// fatal.
func mustAcquire(t *testing.T, p *ExpertPager, k ExpertKey) []float32 {
	t.Helper()
	data, err := p.Acquire(k)
	if err != nil {
		t.Fatalf("Acquire(%v): %v", k, err)
	}
	return data
}

func newTestPager(t testing.TB, floats, slots int, src Source, stats *Stats) *ExpertPager {
	t.Helper()
	fast := memory.NewArena("fast", slots*floats)
	pinned := memory.NewArena("pinned", slots*floats)
	p, err := NewExpertPager(fast, pinned, floats, slots, src, stats)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestExpertPagerDemandFetchThenHit(t *testing.T) {
	var stats Stats
	src := testSource(t, 2, 4, 32)
	p := newTestPager(t, 32, 3, src, &stats)

	k := ExpertKey{Layer: 1, Expert: 2}
	checkBlock(t, k, mustAcquire(t, p, k))
	p.Release(k)
	if got := stats.Misses.Load(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	checkBlock(t, k, mustAcquire(t, p, k))
	p.Release(k)
	if got := stats.Hits.Load(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got, want := stats.BytesFetched.Load(), int64(4*32); got != want {
		t.Fatalf("bytes fetched = %d, want %d (one block)", got, want)
	}
}

func TestExpertPagerEvictsColdKeepsHot(t *testing.T) {
	var stats Stats
	src := testSource(t, 1, 8, 16)
	p := newTestPager(t, 16, 2, src, &stats)

	hot := ExpertKey{Expert: 0}
	// Make hot genuinely hot: three acquires.
	for i := 0; i < 3; i++ {
		checkBlock(t, hot, mustAcquire(t, p, hot))
		p.Release(hot)
	}
	cold := ExpertKey{Expert: 1}
	checkBlock(t, cold, mustAcquire(t, p, cold))
	p.Release(cold)

	// A third block must evict, and the victim must be the cold one.
	third := ExpertKey{Expert: 2}
	checkBlock(t, third, mustAcquire(t, p, third))
	p.Release(third)
	if stats.Evicted.Load() != 1 {
		t.Fatalf("evicted = %d, want 1", stats.Evicted.Load())
	}
	if !p.Resident(hot) {
		t.Fatal("hot block was evicted before the cold one")
	}
	if p.Resident(cold) {
		t.Fatal("cold block survived over the hot one")
	}
	// The evicted block is still correct when it comes back (demand path).
	checkBlock(t, cold, mustAcquire(t, p, cold))
	p.Release(cold)
}

func TestExpertPagerPinnedBlocksSurviveEviction(t *testing.T) {
	src := testSource(t, 1, 8, 16)
	p := newTestPager(t, 16, 2, src, nil)

	pinnedKey := ExpertKey{Expert: 0}
	data := mustAcquire(t, p, pinnedKey) // hold the pin across churn

	// Churn the other slot through several blocks; the pinned block's
	// slot must never be reused while the ref is held.
	for e := 1; e < 6; e++ {
		k := ExpertKey{Expert: e}
		checkBlock(t, k, mustAcquire(t, p, k))
		p.Release(k)
		checkBlock(t, pinnedKey, data)
	}
	p.Release(pinnedKey)
}

func TestExpertPagerPrefetchBecomesHit(t *testing.T) {
	var stats Stats
	src := testSource(t, 2, 4, 64)
	p := newTestPager(t, 64, 4, src, &stats)

	keys := []ExpertKey{{Layer: 0, Expert: 0}, {Layer: 0, Expert: 3}, {Layer: 1, Expert: 1}}
	p.Prefetch(keys...)
	deadline := time.Now().Add(5 * time.Second)
	for _, k := range keys {
		for !p.Resident(k) {
			if time.Now().After(deadline) {
				t.Fatalf("prefetch of %v never landed", k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := stats.Prefetched.Load(); got != int64(len(keys)) {
		t.Fatalf("prefetched = %d, want %d", got, len(keys))
	}
	for _, k := range keys {
		checkBlock(t, k, mustAcquire(t, p, k))
		p.Release(k)
	}
	if got := stats.Misses.Load(); got != 0 {
		t.Fatalf("misses = %d, want 0: prefetched blocks must hit", got)
	}
	if got, want := stats.BytesFetched.Load(), int64(4*64*len(keys)); got != want {
		t.Fatalf("bytes fetched = %d, want %d", got, want)
	}
}

// TestExpertPagerConcurrent hammers Acquire/Release/Prefetch from many
// goroutines over a pool much smaller than the key space; run under
// -race this is the pager's central correctness test — every Acquire
// must return that key's bytes no matter what eviction and prefetch are
// doing around it. The pager's contract is that pins never outnumber
// slots (the engine's one consumer pins a step's experts and releases
// them; TestExpertPagerAcquirePastSlotsPanics), so the eight goroutines
// share `slots` pin tokens; prefetches are not bounded.
func TestExpertPagerConcurrent(t *testing.T) {
	var stats Stats
	const nLayers, nExperts, floats, slots = 4, 8, 32, 4
	src := testSource(t, nLayers, nExperts, floats)
	p := newTestPager(t, floats, slots, src, &stats)

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	pins := make(chan struct{}, slots)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				k := ExpertKey{Layer: rng.Intn(nLayers), Expert: rng.Intn(nExperts)}
				if rng.Intn(4) == 0 {
					p.Prefetch(ExpertKey{Layer: rng.Intn(nLayers), Expert: rng.Intn(nExperts)})
				}
				pins <- struct{}{}
				data, err := p.Acquire(k)
				if err != nil {
					<-pins
					select {
					case errs <- "unexpected fetch error under concurrency":
					default:
					}
					continue
				}
				for j, v := range data {
					if v != signature(k, j) {
						select {
						case errs <- "corrupt block under concurrency":
						default:
						}
						break
					}
				}
				p.Release(k)
				<-pins
			}
		}(int64(g + 1))
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	waitIdle(t, p) // the worker has decided every request: the byte invariant is final
	checkByteIdentity(t, &stats, floats)
}

// waitIdle returns once the prefetch worker has nothing left to start
// and no fetch is in flight. The worker pops a request and claims its
// slot under one hold of the lock, so seeing both at once means every
// request handed over so far has landed, failed or been passed over.
func waitIdle(t *testing.T, p *ExpertPager) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		idle := p.next == len(p.pending) && p.anyLoadingLocked() == nil
		p.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("prefetch worker never went idle")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkByteIdentity asserts the accounting identity every block fetch
// keeps: bytes fetched == (demand misses + prefetches) x block bytes.
func checkByteIdentity(t *testing.T, stats *Stats, floats int) {
	t.Helper()
	fetched := stats.Misses.Load() + stats.Prefetched.Load()
	if got, want := stats.BytesFetched.Load(), 4*int64(floats)*fetched; got != want {
		t.Fatalf("bytes fetched = %d, want %d (%d fetches)", got, want, fetched)
	}
}

// TestExpertPagerAcquirePastSlotsPanics pins the single-consumer rule:
// with every slot pinned and no fetch in flight, one more cold Acquire
// can never be served, and the pager says so instead of deadlocking.
func TestExpertPagerAcquirePastSlotsPanics(t *testing.T) {
	const floats, slots = 32, 3
	p := newTestPager(t, floats, slots, testSource(t, 1, slots+1, floats), nil)
	for e := 0; e < slots; e++ {
		mustAcquire(t, p, ExpertKey{Expert: e})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cold Acquire with every slot pinned returned; want the wedged-pager panic")
		}
	}()
	p.Acquire(ExpertKey{Expert: slots})
}

func TestExpertPagerRejectsBadConfig(t *testing.T) {
	fast := memory.NewArena("fast", 64)
	pinned := memory.NewArena("pinned", 64)
	src := func(ExpertKey) memory.Region { panic("unused") }
	if _, err := NewExpertPager(fast, pinned, 0, 2, src, nil); err == nil {
		t.Error("want error for zero block size")
	}
	if _, err := NewExpertPager(fast, pinned, 16, 0, src, nil); err == nil {
		t.Error("want error for zero slots")
	}
	if _, err := NewExpertPager(fast, pinned, 64, 2, src, nil); err == nil {
		t.Error("want arena exhaustion error")
	}
}

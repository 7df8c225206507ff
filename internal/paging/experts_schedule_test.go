package paging

import "testing"

// layerKeys returns layer l's n expert keys in id order.
func layerKeys(l, n int) []ExpertKey {
	keys := make([]ExpertKey, n)
	for e := range keys {
		keys[e] = ExpertKey{Layer: l, Expert: e}
	}
	return keys
}

// sweep walks the layers once the way the engine does: announce the
// layer, prefetch the next one (wrapping) — landed when Prefetch
// returns — then use every block of the announced layer.
func sweep(t *testing.T, p *ExpertPager, layers, experts int) {
	t.Helper()
	for l := 0; l < layers; l++ {
		p.BeginLayer(l, layers)
		p.Prefetch(layerKeys((l+1)%layers, experts)...)
		for _, k := range layerKeys(l, experts) {
			checkBlock(t, k, mustAcquire(t, p, k))
			p.Release(k)
		}
	}
}

// TestCyclicSweepFetchesEachBlockOnce is the expert stream's premise:
// with room for two layers and the next layer prefetched as a layer
// starts, every block crosses once per pass through the layers and none
// is fetched on demand. Plain LRU fails it — the previous layer's
// blocks are touched after the current layer's prefetch landed, so the
// next prefetch evicts the blocks still waiting to be used.
func TestCyclicSweepFetchesEachBlockOnce(t *testing.T) {
	var stats Stats
	const layers, experts, floats = 5, 4, 32
	p := newTestPager(t, floats, 2*experts, testSource(t, layers, experts, floats), &stats)

	sweep(t, p, layers, experts) // cold: layer 0 arrives by demand fetch
	for i := 0; i < 3; i++ {
		misses, bytes := stats.Misses.Load(), stats.BytesFetched.Load()
		sweep(t, p, layers, experts)
		if got := stats.Misses.Load() - misses; got != 0 {
			t.Fatalf("sweep %d: %d demand misses, want 0", i, got)
		}
		if got, want := stats.BytesFetched.Load()-bytes, int64(layers*experts*4*floats); got != want {
			t.Fatalf("sweep %d: fetched %d bytes, want %d (every block once)", i, got, want)
		}
	}
	checkByteIdentity(t, &stats, floats)
}

// TestPrefetchNeverDisplacesSoonerBlock: with one slot holding a block
// of the announced layer, a prefetch for the next layer is passed over,
// while a block of the layer just finished makes way for it.
func TestPrefetchNeverDisplacesSoonerBlock(t *testing.T) {
	var stats Stats
	const layers, floats = 4, 16
	p := newTestPager(t, floats, 1, testSource(t, layers, 2, floats), &stats)

	cur, next := ExpertKey{Layer: 1}, ExpertKey{Layer: 2}
	p.BeginLayer(cur.Layer, layers)
	checkBlock(t, cur, mustAcquire(t, p, cur))
	p.Release(cur)
	p.Prefetch(next)
	if !p.Resident(cur) || p.Resident(next) || stats.Evicted.Load() != 0 {
		t.Fatalf("a prefetch for layer %d displaced a block of the announced layer %d", next.Layer, cur.Layer)
	}

	// The same block once its layer has finished is the first to go.
	p.BeginLayer(next.Layer, layers)
	p.Prefetch(ExpertKey{Layer: 3})
	if p.Resident(cur) || !p.Resident(ExpertKey{Layer: 3}) {
		t.Fatal("a prefetch did not displace a block of the layer just finished")
	}
}

// TestNoEvictionWhenEverythingFits: a pool that holds the whole model
// never evicts, whatever is announced.
func TestNoEvictionWhenEverythingFits(t *testing.T) {
	var stats Stats
	const layers, experts, floats = 3, 4, 16
	p := newTestPager(t, floats, layers*experts, testSource(t, layers, experts, floats), &stats)
	for i := 0; i < 3; i++ {
		sweep(t, p, layers, experts)
	}
	if got := stats.Evicted.Load(); got != 0 {
		t.Fatalf("evicted = %d, want 0", got)
	}
	if got, want := stats.BytesFetched.Load(), int64(layers*experts*4*floats); got != want {
		t.Fatalf("fetched %d bytes, want %d (every block once, ever)", got, want)
	}
}

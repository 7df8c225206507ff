package kvcache

import (
	"errors"
	"testing"
)

// TestCheckIdleDetectsLeaksAndRecovers: CheckIdle flags live streams /
// held blocks while a sequence is appended, and passes again once the
// sequence is released — its indexed block cached, which is not a leak —
// or, after a leak no release can return (a block out of the pool, an
// unreferenced indexed block off the reclaim list), once the cache is
// Reset.
func TestCheckIdleDetectsLeaksAndRecovers(t *testing.T) {
	const layers, dim, block = 2, 4, 4
	c := newCache(t, layers, dim, block, 32)
	if err := c.CheckIdle(); err != nil {
		t.Fatalf("fresh cache not idle: %v", err)
	}
	tokens := make([]int, block)
	for pos := 0; pos < block; pos++ {
		tokens[pos] = 10 + pos
		for l := 0; l < layers; l++ {
			if err := c.Append(0, l, vec(dim, 1), vec(dim, 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for l := 0; l < layers; l++ {
		c.IndexPrefix(0, l, tokens)
	}
	if err := c.CheckIdle(); err == nil {
		t.Fatal("CheckIdle passed with a live sequence holding blocks")
	}
	c.Release(0)
	if err := c.CheckIdle(); err != nil {
		t.Fatalf("cache not idle after releasing its only sequence: %v", err)
	}
	if c.ncached != layers || c.IndexedPrefix(tokens, block) != block || c.FreeBlocks() != len(c.all) {
		t.Fatalf("released indexed blocks: %d cached, %d free of %d; want %d cached and resolvable, all free",
			c.ncached, c.FreeBlocks(), len(c.all), layers)
	}

	// An unreferenced indexed block that is off the reclaim list can
	// never be taken again: a leak, though nothing references it.
	lost := c.takeBlock()
	lost.refs, lost.indexed = 0, true
	c.prefix[prefixKey{lost.hash, lost.layer}] = lost
	if err := c.CheckIdle(); err == nil {
		t.Fatal("CheckIdle passed with an indexed block off the reclaim list")
	}
	c.Reset()
	if err := c.CheckIdle(); err != nil || c.ncached != 0 {
		t.Fatalf("after Reset: %v, %d cached", err, c.ncached)
	}

	// A leak: a live indexed sequence plus a block out of the pool that
	// no stream holds.
	for l := 0; l < layers; l++ {
		for pos := 0; pos < block; pos++ {
			if err := c.Append(1, l, vec(dim, 1), vec(dim, 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.IndexPrefix(1, 0, tokens)
	c.takeBlock()
	if err := c.CheckIdle(); err == nil {
		t.Fatal("CheckIdle passed with a leaked block")
	}
	free := c.FreeBlocks()
	c.Reset()
	if err := c.CheckIdle(); err != nil {
		t.Fatalf("cache not idle after Reset: %v", err)
	}
	if c.FreeBlocks() != free+1+layers || c.Len(1) != 0 {
		t.Errorf("after Reset: %d free blocks, want %d; sequence 1 holds %d tokens", c.FreeBlocks(), free+1+layers, c.Len(1))
	}
}

// TestSetAllocHookForcesExhaustion: a hook failure makes the chosen
// allocation behave exactly like pool exhaustion — ErrOutOfBlocks with
// blocks still free — and removing the hook heals the cache.
func TestSetAllocHookForcesExhaustion(t *testing.T) {
	const layers, dim, block = 1, 4, 2
	c := newCache(t, layers, dim, block, 32)
	allocs := 0
	c.SetAllocHook(func() error {
		allocs++
		if allocs == 2 {
			return errors.New("injected")
		}
		return nil
	})
	// Block 1 (positions 0-1) allocates fine; position 2 needs block 2,
	// whose allocation the hook fails.
	var err error
	for pos := 0; pos < 2*block; pos++ {
		if err = c.Append(0, 0, vec(dim, 1), vec(dim, 2)); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("forced allocation: want ErrOutOfBlocks, got %v", err)
	}
	if c.FreeBlocks() == 0 {
		t.Error("forced exhaustion should fire with blocks still free")
	}
	if c.Len(0) != block {
		t.Errorf("failed Append advanced the stream: len %d, want %d", c.Len(0), block)
	}
	// The hook is consulted per allocation, not per Append.
	if allocs != 2 {
		t.Errorf("hook consulted %d times, want 2", allocs)
	}
	c.SetAllocHook(nil)
	if err := c.Append(0, 0, vec(dim, 1), vec(dim, 2)); err != nil {
		t.Fatalf("Append after removing the hook: %v", err)
	}
	c.Release(0)
	if err := c.CheckIdle(); err != nil {
		t.Fatalf("cache not idle after release: %v", err)
	}
}

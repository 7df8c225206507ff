package kvcache

import (
	"errors"
	"reflect"
	"testing"

	"moelightning/internal/memory"
	"moelightning/internal/tensor"
)

// tokensOf builds a deterministic token chain.
func tokensOf(n, seed int) []int {
	ts := make([]int, n)
	for i := range ts {
		ts[i] = (seed*131 + i*7) % 997
	}
	return ts
}

// fillSeq appends n tokens for seq across all layers, deriving k/v
// rows from the token ids so shared content is verifiable.
func fillSeq(t *testing.T, c *Cache, seq, layers, dim int, tokens []int) {
	t.Helper()
	for l := 0; l < layers; l++ {
		for _, tok := range tokens {
			k := vec(dim, float32(tok))
			v := vec(dim, float32(tok)+0.5)
			if err := c.Append(seq, l, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAttachPrefixSharesBlocks(t *testing.T) {
	const layers, dim, block = 2, 4, 4
	c := newCache(t, layers, dim, block, 64)
	tokens := tokensOf(10, 1)
	fillSeq(t, c, 0, layers, dim, tokens)
	usedBefore := c.UsedBlocks()

	for l := 0; l < layers; l++ {
		c.IndexPrefix(0, l, tokens)
		got := c.AttachPrefix(1, l, tokens, 8)
		if got != 8 {
			t.Fatalf("layer %d: attached %d tokens, want 8", l, got)
		}
	}
	if c.Len(1) != 8 {
		t.Fatalf("attached len = %d", c.Len(1))
	}
	// Zero new physical blocks: the prefix is mapped, not copied.
	if c.UsedBlocks() != usedBefore {
		t.Fatalf("attach consumed blocks: used %d -> %d", usedBefore, c.UsedBlocks())
	}
	// The attached context reads back identical to the donor's prefix.
	for l := 0; l < layers; l++ {
		for pos := 0; pos < 8; pos++ {
			dk, dv := rowAt(c, 0, l, pos)
			ak, av := rowAt(c, 1, l, pos)
			if !reflect.DeepEqual(ak, dk) || !reflect.DeepEqual(av, dv) {
				t.Fatalf("layer %d pos %d: attached prefix differs from donor", l, pos)
			}
		}
	}
	// Appending the divergent tail works and leaves the donor intact.
	tail := vec(dim, 777)
	if err := c.Append(1, 0, tail, tail); err != nil {
		t.Fatal(err)
	}
	if dk, _ := rowAt(c, 0, 0, 8); dk[0] != float32(tokens[8]) {
		t.Fatal("follower append corrupted donor block")
	}
}

func TestAttachPrefixRequiresIndexedChain(t *testing.T) {
	const layers, dim, block = 1, 2, 4
	c := newCache(t, layers, dim, block, 64)
	tokens := tokensOf(8, 3)
	fillSeq(t, c, 0, layers, dim, tokens)
	// Without IndexPrefix the chain resolves nothing.
	if got := c.AttachPrefix(1, 0, tokens, 8); got != 0 {
		t.Fatalf("unindexed attach returned %d", got)
	}
	c.IndexPrefix(0, 0, tokens)
	// A different token chain must not match.
	other := tokensOf(8, 99)
	if got := c.AttachPrefix(1, 0, other, 8); got != 0 {
		t.Fatalf("mismatched chain attached %d tokens", got)
	}
	// A non-empty stream refuses attachment.
	fillSeq(t, c, 2, layers, dim, tokens[:1])
	if got := c.AttachPrefix(2, 0, tokens, 8); got != 0 {
		t.Fatalf("attach into non-empty stream returned %d", got)
	}
}

// TestAttachPrefixPartialMatchAttachesWholeBlocks: a 6-token match
// over 4-token blocks maps the one whole block it covers, never the
// donor's partly matched second block. The follower's next token goes
// into a block of its own — the row reads back as the codec's round
// trip of what was written — and the donor's rows stay as they were.
func TestAttachPrefixPartialMatchAttachesWholeBlocks(t *testing.T) {
	const layers, dim, block = 1, 4, 4
	for _, dtype := range []DType{F32, Int8} {
		t.Run(dtype.String(), func(t *testing.T) {
			arena := memory.NewArena("cache", 1<<20)
			c, err := New(arena, layers, dim, block, 64, dtype)
			if err != nil {
				t.Fatal(err)
			}
			donorTokens := tokensOf(8, 5)
			fillSeq(t, c, 0, layers, dim, donorTokens)
			c.IndexPrefix(0, 0, donorTokens)
			donorRow, _ := rowAt(c, 0, 0, 4)
			donorRow = append([]float32(nil), donorRow...)
			used := c.UsedBlocks()
			if got := c.AttachPrefix(1, 0, donorTokens, 6); got != 4 {
				t.Fatalf("attached %d, want 4 (one whole block)", got)
			}
			if c.Len(1) != 4 || c.UsedBlocks() != used {
				t.Fatalf("len %d over %d used blocks; want 4 over %d", c.Len(1), c.UsedBlocks(), used)
			}
			div := vec(dim, 555)
			if err := c.Append(1, 0, div, div); err != nil {
				t.Fatal(err)
			}
			if c.UsedBlocks() != used+1 {
				t.Fatalf("follower's append used %d blocks, want %d", c.UsedBlocks(), used+1)
			}
			for pos := 0; pos < 4; pos++ {
				dk, _ := rowAt(c, 0, 0, pos)
				fk, _ := rowAt(c, 1, 0, pos)
				if !reflect.DeepEqual(dk, fk) {
					t.Fatalf("shared row %d differs between donor and follower", pos)
				}
			}
			if dk, _ := rowAt(c, 0, 0, 4); !reflect.DeepEqual(dk, donorRow) {
				t.Fatal("follower's append changed the donor's row")
			}
			// Bit-identity under the codec: the follower's row must equal a
			// freshly quantized/decoded reference of it.
			ref := make([]float32, dim)
			if dtype == Int8 {
				codes := make([]float32, tensor.PackedCols(dim))
				scales := make([]float32, tensor.QGroups(dim, GroupSize))
				tensor.QuantizeRow(codes, scales, div, GroupSize)
				tensor.DequantizeRow(ref, codes, scales, dim, GroupSize)
			} else {
				copy(ref, div)
			}
			if fk, _ := rowAt(c, 1, 0, 4); !reflect.DeepEqual(fk, ref) {
				t.Fatalf("follower row %v != codec reference %v", fk, ref)
			}
		})
	}
}

// TestReleaseKeepsSharedBlocksAlive: retiring one reader of a shared
// prefix must not free the blocks under the survivors.
func TestReleaseKeepsSharedBlocksAlive(t *testing.T) {
	const layers, dim, block = 1, 2, 4
	c := newCache(t, layers, dim, block, 64)
	tokens := tokensOf(8, 7)
	fillSeq(t, c, 0, layers, dim, tokens)
	c.IndexPrefix(0, 0, tokens)
	if got := c.AttachPrefix(1, 0, tokens, 8); got != 8 {
		t.Fatalf("attach: %d", got)
	}
	used := c.UsedBlocks()
	c.Release(0) // donor retires first
	if c.UsedBlocks() != used {
		t.Fatalf("donor release freed shared blocks: %d -> %d", used, c.UsedBlocks())
	}
	if k, _ := rowAt(c, 1, 0, 3); k[0] != float32(tokens[3]) {
		t.Fatal("survivor lost prefix content after donor release")
	}
	c.Release(1)
	if c.UsedBlocks() != 0 {
		t.Fatalf("blocks leaked after last reader: %d", c.UsedBlocks())
	}
}

// TestDoubleReleaseIsNoOp is the satellite regression test: releasing
// an already-released (or never-admitted) sequence must not disturb
// pool accounting.
func TestDoubleReleaseIsNoOp(t *testing.T) {
	const layers, dim, block = 2, 2, 2
	c := newCache(t, layers, dim, block, 16)
	free := c.FreeBlocks()
	fillSeq(t, c, 0, layers, dim, tokensOf(4, 11))
	c.Release(0)
	if c.FreeBlocks() != free {
		t.Fatalf("free = %d after release, want %d", c.FreeBlocks(), free)
	}
	c.Release(0)  // double release
	c.Release(42) // never admitted
	if c.FreeBlocks() != free || c.UsedBlocks() != 0 {
		t.Fatalf("double release disturbed pool: free=%d used=%d", c.FreeBlocks(), c.UsedBlocks())
	}
	// The pool still works end to end afterwards.
	fillSeq(t, c, 1, layers, dim, tokensOf(4, 12))
	if c.Len(1) != 4 {
		t.Fatalf("len = %d", c.Len(1))
	}
}

// TestReclaimPurgesPrefixIndex: a released, indexed block stays in the
// index and still resolves to the same bytes, but once the pool
// reclaims it for another sequence it leaves the index, so a later
// attach cannot map a recycled block.
func TestReclaimPurgesPrefixIndex(t *testing.T) {
	const layers, dim, block = 1, 2, 4
	c := newCache(t, layers, dim, block, 8) // exactly 2 blocks
	tokens := tokensOf(8, 13)
	fillSeq(t, c, 0, layers, dim, tokens)
	c.IndexPrefix(0, 0, tokens)
	c.Release(0)
	if c.FreeBlocks() != 2 || c.UsedBlocks() != 0 {
		t.Fatalf("released cached blocks: free %d used %d, want 2 and 0", c.FreeBlocks(), c.UsedBlocks())
	}
	if got := c.AttachPrefix(1, 0, tokens, 8); got != 8 {
		t.Fatalf("released prefix resolved %d tokens, want 8", got)
	}
	for pos := range tokens {
		if k, v := rowAt(c, 1, 0, pos); k[0] != float32(tokens[pos]) || v[0] != float32(tokens[pos])+0.5 {
			t.Fatalf("pos %d: cached block reads k %v v %v, want the released bytes", pos, k[0], v[0])
		}
	}
	c.Release(1)

	// Both blocks are cached and none is free: a new sequence's appends
	// reclaim them and overwrite their rows.
	fillSeq(t, c, 2, layers, dim, tokensOf(8, 14))
	if got := c.AttachPrefix(3, 0, tokens, 8); got != 0 {
		t.Fatalf("attach resolved %d tokens through reclaimed blocks", got)
	}
	if got := c.IndexedPrefix(tokens, 8); got != 0 {
		t.Fatalf("IndexedPrefix resolved %d tokens through reclaimed blocks", got)
	}
}

// TestReclaimTakesFreeFirstThenOldestRelease: Append takes a free block
// before any cached one, and among cached blocks reclaims the least
// recently released first.
func TestReclaimTakesFreeFirstThenOldestRelease(t *testing.T) {
	const layers, dim, block = 1, 2, 4
	c := newCache(t, layers, dim, block, 16) // 4 blocks
	a, b := tokensOf(4, 21), tokensOf(4, 22)
	fillSeq(t, c, 0, layers, dim, a)
	fillSeq(t, c, 1, layers, dim, b)
	c.IndexPrefix(0, 0, a)
	c.IndexPrefix(1, 0, b)
	c.Release(0) // a is released first: the older cached block
	c.Release(1)

	// Two free blocks remain: two single-block sequences take them and
	// leave both cached prefixes resolvable.
	fillSeq(t, c, 2, layers, dim, tokensOf(4, 23))
	fillSeq(t, c, 3, layers, dim, tokensOf(4, 24))
	if c.IndexedPrefix(a, 4) != 4 || c.IndexedPrefix(b, 4) != 4 {
		t.Fatal("an Append reclaimed a cached block while free blocks were left")
	}
	// The next block comes off the reclaim list: a's, the older release.
	fillSeq(t, c, 4, layers, dim, tokensOf(4, 25))
	if c.IndexedPrefix(a, 4) != 0 || c.IndexedPrefix(b, 4) != 4 {
		t.Fatalf("reclaim order: a resolves %d, b %d; want the older a reclaimed", c.IndexedPrefix(a, 4), c.IndexedPrefix(b, 4))
	}
	// Attaching b takes it off the reclaim list: with nothing free or
	// cached left, the pool is exhausted rather than recycling a block
	// a stream holds.
	if got := c.AttachPrefix(5, 0, b, 4); got != 4 {
		t.Fatalf("attach b: %d", got)
	}
	if err := c.Append(6, 0, vec(dim, 1), vec(dim, 2)); !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("append with every block held: %v, want ErrOutOfBlocks", err)
	}
	if k, _ := rowAt(c, 5, 0, 3); k[0] != float32(b[3]) {
		t.Fatal("attached cached block lost its bytes")
	}
}

// TestIndexPrefixMovesCachedChainToLiveBlock: a sequence that computed
// blocks a cached block already advertises takes over the index entry,
// and the cached duplicate returns to the free pool, so the chain
// resolves to a block a stream holds — one no Append can reclaim.
func TestIndexPrefixMovesCachedChainToLiveBlock(t *testing.T) {
	const layers, dim, block = 1, 2, 4
	c := newCache(t, layers, dim, block, 16)
	tokens := tokensOf(4, 19)
	fillSeq(t, c, 0, layers, dim, tokens)
	c.IndexPrefix(0, 0, tokens)
	c.Release(0)
	fillSeq(t, c, 1, layers, dim, tokens) // a free block, not the cached one
	if c.ncached != 1 {
		t.Fatalf("%d cached blocks, want 1", c.ncached)
	}
	c.IndexPrefix(1, 0, tokens)
	if c.ncached != 0 || len(c.pool) != 3 {
		t.Fatalf("after re-indexing: %d cached, %d free; want 0 and 3", c.ncached, len(c.pool))
	}
	if got := c.AttachPrefix(2, 0, tokens, 4); got != 4 || c.UsedBlocks() != 1 {
		t.Fatalf("attach resolved %d tokens over %d used blocks; want 4 over sequence 1's one", got, c.UsedBlocks())
	}
}

// TestAppendRefusesSharedOrIndexedBlock: only full blocks are shared or
// indexed, so no Append can reach one; if one did, it is refused with
// an error that leaves the stream's length and the block's rows as they
// were, and the index still maps the block's old bytes. The two states
// are set by hand here: no sequence of calls produces them.
func TestAppendRefusesSharedOrIndexedBlock(t *testing.T) {
	const layers, dim, block = 1, 2, 4
	for _, state := range []string{"shared", "indexed"} {
		t.Run(state, func(t *testing.T) {
			c := newCache(t, layers, dim, block, 64)
			tokens := tokensOf(6, 17)
			fillSeq(t, c, 0, layers, dim, tokens)
			c.IndexPrefix(0, 0, tokens) // the full first block
			tail := c.blocks[seqLayer{0, 0}][1]
			if state == "shared" {
				tail.refs++
			} else {
				tail.indexed = true
			}
			rows := append([]float32(nil), tail.region.Data()...)
			if err := c.Append(0, 0, vec(dim, 555), vec(dim, 555)); err == nil {
				t.Fatal("Append wrote into a shared or indexed block")
			}
			if c.Len(0) != 6 {
				t.Fatalf("refused Append moved the length to %d", c.Len(0))
			}
			if !reflect.DeepEqual(tail.region.Data(), rows) {
				t.Fatal("refused Append changed the block's rows")
			}
			if got := c.AttachPrefix(1, 0, tokens, 4); got != 4 {
				t.Fatalf("the indexed block resolved %d tokens, want 4", got)
			}
			if k, _ := rowAt(c, 1, 0, 3); k[0] != float32(tokens[3]) {
				t.Fatal("the indexed block lost its bytes")
			}
		})
	}
}

// TestExhaustionAfterAttachLeavesStreamUnchanged: a follower that runs
// out of blocks right after attaching a prefix fails its Append like
// any other — stream length unchanged, the shared block untouched — and
// retiring it leaves the donor fully resident.
func TestExhaustionAfterAttachLeavesStreamUnchanged(t *testing.T) {
	const layers, dim, block = 1, 2, 4
	c := newCache(t, layers, dim, block, 8) // exactly 2 blocks
	tokens := tokensOf(8, 29)
	fillSeq(t, c, 0, layers, dim, tokens) // pool drained
	c.IndexPrefix(0, 0, tokens)
	if got := c.AttachPrefix(1, 0, tokens, 6); got != 4 {
		t.Fatalf("attach: %d, want 4", got)
	}
	err := c.Append(1, 0, vec(dim, 9), vec(dim, 9))
	if !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("want ErrOutOfBlocks, got %v", err)
	}
	if c.Len(1) != 4 {
		t.Fatalf("failed Append advanced length to %d", c.Len(1))
	}
	for pos := range tokens {
		if k, _ := rowAt(c, 0, 0, pos); k[0] != float32(tokens[pos]) {
			t.Fatalf("failed Append changed the donor's row %d", pos)
		}
	}
	// The offender holds no private blocks, so retiring it leaves the
	// donor fully resident.
	c.Release(1)
	if c.UsedBlocks() != 2 {
		t.Fatalf("used = %d after offender retired", c.UsedBlocks())
	}
}

func TestIndexPrefixIdempotent(t *testing.T) {
	const layers, dim, block = 1, 2, 4
	c := newCache(t, layers, dim, block, 64)
	tokens := tokensOf(8, 31)
	fillSeq(t, c, 0, layers, dim, tokens)
	c.IndexPrefix(0, 0, tokens)
	c.IndexPrefix(0, 0, tokens)
	// A second donor with the same content keeps the first's entries.
	fillSeq(t, c, 1, layers, dim, tokens)
	c.IndexPrefix(1, 0, tokens)
	if got := c.AttachPrefix(2, 0, tokens, 8); got != 8 {
		t.Fatalf("attach after duplicate index: %d", got)
	}
	// Releasing the duplicate donor must not purge the live entries.
	c.Release(1)
	if got := c.AttachPrefix(3, 0, tokens, 8); got != 8 {
		t.Fatalf("attach after duplicate donor release: %d", got)
	}
}

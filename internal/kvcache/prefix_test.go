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

func TestAttachPrefixPartialTailCopiesOnWrite(t *testing.T) {
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
			// 6 tokens shared: one full block + 2 rows of the second —
			// the ceil block is mapped and the first divergent write
			// must copy it.
			got := c.AttachPrefix(1, 0, donorTokens, 6)
			if got != 6 {
				t.Fatalf("attached %d, want 6", got)
			}
			if c.CowCopies() != 0 {
				t.Fatalf("premature COW: %d", c.CowCopies())
			}
			div := vec(dim, 555)
			if err := c.Append(1, 0, div, div); err != nil {
				t.Fatal(err)
			}
			if c.CowCopies() != 1 {
				t.Fatalf("cow copies = %d, want 1", c.CowCopies())
			}
			// Donor still reads its own token at position 6; follower
			// reads the divergent row; the shared first 6 rows agree.
			for pos := 0; pos < 6; pos++ {
				dk, _ := rowAt(c, 0, 0, pos)
				fk, _ := rowAt(c, 1, 0, pos)
				if !reflect.DeepEqual(dk, fk) {
					t.Fatalf("shared row %d diverged after COW", pos)
				}
			}
			dk, _ := rowAt(c, 0, 0, 6)
			fk, _ := rowAt(c, 1, 0, 6)
			if dk[0] == fk[0] {
				t.Fatal("divergent row leaked between sequences")
			}
			// Bit-identity under the codec: the follower's divergent row
			// must equal a freshly quantized/decoded reference of it.
			ref := make([]float32, dim)
			if dtype == Int8 {
				codes := make([]float32, tensor.PackedCols(dim))
				scales := make([]float32, tensor.QGroups(dim, GroupSize))
				tensor.QuantizeRow(codes, scales, div, GroupSize)
				tensor.DequantizeRow(ref, codes, scales, dim, GroupSize)
			} else {
				copy(ref, div)
			}
			if !reflect.DeepEqual(fk, ref) {
				t.Fatalf("follower divergent row %v != codec reference %v", fk, ref)
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

// TestReleasePurgesPrefixIndex: a freed block must leave the index so
// a later attach cannot map a recycled block.
func TestReleasePurgesPrefixIndex(t *testing.T) {
	const layers, dim, block = 1, 2, 4
	c := newCache(t, layers, dim, block, 64)
	tokens := tokensOf(8, 13)
	fillSeq(t, c, 0, layers, dim, tokens)
	c.IndexPrefix(0, 0, tokens)
	c.Release(0)
	if got := c.AttachPrefix(1, 0, tokens, 8); got != 0 {
		t.Fatalf("attach resolved %d tokens through a purged index", got)
	}
}

// TestAppendDeindexesOverwrittenBlock: a write into a private block
// that the prefix index still advertises (follower inherited the
// donor's indexed ceil block, donor released, refcount back to one)
// must retract the index entry before mutating, so a later attacher
// never maps overwritten content.
func TestAppendDeindexesOverwrittenBlock(t *testing.T) {
	const layers, dim, block = 1, 2, 4
	c := newCache(t, layers, dim, block, 64)
	tokens := tokensOf(8, 17)
	fillSeq(t, c, 0, layers, dim, tokens)
	c.IndexPrefix(0, 0, tokens)
	// Follower shares 6 of 8 tokens: both blocks mapped, the second
	// partially. Donor retires, leaving the follower sole owner of two
	// still-indexed blocks.
	if got := c.AttachPrefix(1, 0, tokens, 6); got != 6 {
		t.Fatalf("attach: %d", got)
	}
	c.Release(0)
	// The follower's divergent append hits the indexed second block
	// with refs == 1: in-place write, but the stale chain entry for
	// the full 8-token prefix must be gone.
	if err := c.Append(1, 0, vec(dim, 555), vec(dim, 555)); err != nil {
		t.Fatal(err)
	}
	if c.CowCopies() != 0 {
		t.Fatalf("sole-owner write copied: %d", c.CowCopies())
	}
	if got := c.AttachPrefix(2, 0, tokens, 8); got != 4 {
		t.Fatalf("stale 2-block chain resolved %d tokens, want 4 (first block only)", got)
	}
}

// TestCowExhaustionLeavesStreamUnchanged: running out of blocks during
// a copy-on-write must behave like any failed Append — stream length
// unchanged, shared block untouched.
func TestCowExhaustionLeavesStreamUnchanged(t *testing.T) {
	const layers, dim, block = 1, 2, 4
	c := newCache(t, layers, dim, block, 8) // exactly 2 blocks
	tokens := tokensOf(8, 29)
	fillSeq(t, c, 0, layers, dim, tokens) // pool drained
	c.IndexPrefix(0, 0, tokens)
	if got := c.AttachPrefix(1, 0, tokens, 6); got != 6 {
		t.Fatalf("attach: %d", got)
	}
	err := c.Append(1, 0, vec(dim, 9), vec(dim, 9))
	if !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("want ErrOutOfBlocks, got %v", err)
	}
	if c.Len(1) != 6 {
		t.Fatalf("failed COW advanced length to %d", c.Len(1))
	}
	if c.CowCopies() != 0 {
		t.Fatalf("failed COW counted: %d", c.CowCopies())
	}
	// Donor's content at the contested position is intact.
	if k, _ := rowAt(c, 0, 0, 6); k[0] != float32(tokens[6]) {
		t.Fatal("failed COW corrupted shared block")
	}
	// Retiring the offender releases its tail capacity... it holds no
	// private blocks, so the donor remains fully resident.
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

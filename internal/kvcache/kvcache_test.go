package kvcache

import (
	"errors"
	"slices"
	"testing"

	"moelightning/internal/memory"
	"moelightning/internal/tensor"
)

func newCache(t *testing.T, layers, kvDim, block, capTokens int) *Cache {
	t.Helper()
	arena := memory.NewArena("cache", 1<<20)
	c, err := New(arena, layers, kvDim, block, capTokens, F32)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func vec(dim int, base float32) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = base + float32(i)
	}
	return v
}

// rowAt reads position pos of a (sequence, layer) stream through the
// zero-copy views attention walks, dequantizing an Int8 cache's row.
func rowAt(c *Cache, seq, layer, pos int) (k, v []float32) {
	b, r := pos/c.blockTokens, pos%c.blockTokens
	if c.dtype != Int8 {
		kb, vb, _ := c.BlockView(seq, layer, nil, nil)
		return kb[b].Row(r), vb[b].Row(r)
	}
	kb, vb, _ := c.QBlockView(seq, layer, nil, nil)
	k, v = make([]float32, c.kvDim), make([]float32, c.kvDim)
	tensor.DequantizeRow(k, kb[b].RowCodes(r), kb[b].RowScales(r), c.kvDim, GroupSize)
	tensor.DequantizeRow(v, vb[b].RowCodes(r), vb[b].RowScales(r), c.kvDim, GroupSize)
	return k, v
}

func TestAppendRoundTrip(t *testing.T) {
	const layers, dim = 2, 4
	c := newCache(t, layers, dim, 3, 32)
	for pos := 0; pos < 7; pos++ {
		for l := 0; l < layers; l++ {
			k := vec(dim, float32(100*l+pos))
			v := vec(dim, float32(1000*l+pos))
			if err := c.Append(0, l, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Len(0) != 7 {
		t.Fatalf("len = %d", c.Len(0))
	}
	for l := 0; l < layers; l++ {
		if _, _, ctx := c.BlockView(0, l, nil, nil); ctx != 7 {
			t.Fatalf("layer %d context = %d tokens, want 7", l, ctx)
		}
		for pos := 0; pos < 7; pos++ {
			k, v := rowAt(c, 0, l, pos)
			if k[0] != float32(100*l+pos) {
				t.Fatalf("layer %d pos %d key = %v", l, pos, k[0])
			}
			if v[3] != float32(1000*l+pos)+3 {
				t.Fatalf("layer %d pos %d value = %v", l, pos, v[3])
			}
		}
	}
}

func TestLayerWisePrefillOrder(t *testing.T) {
	// Appending a whole sequence at layer 0, then at layer 1, must work
	// (the prefill pattern).
	const dim = 2
	c := newCache(t, 2, dim, 4, 16)
	for l := 0; l < 2; l++ {
		for pos := 0; pos < 5; pos++ {
			if err := c.Append(0, l, vec(dim, float32(pos)), vec(dim, 0)); err != nil {
				t.Fatalf("layer %d pos %d: %v", l, pos, err)
			}
		}
		if _, _, n := c.BlockView(0, l, nil, nil); n != 5 {
			t.Fatalf("layer %d len = %d", l, n)
		}
	}
}

func TestMultipleSequencesIsolated(t *testing.T) {
	const dim = 2
	c := newCache(t, 1, dim, 4, 64)
	for s := 0; s < 3; s++ {
		for pos := 0; pos < 4; pos++ {
			if err := c.Append(s, 0, vec(dim, float32(10*s+pos)), vec(dim, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := 0; s < 3; s++ {
		if k, _ := rowAt(c, s, 0, 2); k[0] != float32(10*s+2) {
			t.Fatalf("seq %d key = %v", s, k[0])
		}
	}
}

func TestBlockExhaustion(t *testing.T) {
	c := newCache(t, 1, 2, 2, 4) // 2 blocks of 2 tokens
	for pos := 0; pos < 4; pos++ {
		if err := c.Append(0, 0, vec(2, 0), vec(2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Append(0, 0, vec(2, 0), vec(2, 0)); err == nil {
		t.Fatal("want out-of-blocks error")
	}
}

func TestRelease(t *testing.T) {
	c := newCache(t, 2, 2, 2, 8)
	free := c.FreeBlocks()
	for l := 0; l < 2; l++ {
		for pos := 0; pos < 4; pos++ {
			if err := c.Append(0, l, vec(2, 0), vec(2, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.UsedBlocks() == 0 {
		t.Fatal("blocks not accounted")
	}
	c.Release(0)
	if c.FreeBlocks() != free || c.UsedBlocks() != 0 {
		t.Fatalf("release leaked: free=%d used=%d", c.FreeBlocks(), c.UsedBlocks())
	}
	if c.Len(0) != 0 {
		t.Fatal("length survives release")
	}
	// Released blocks are reusable.
	for pos := 0; pos < 4; pos++ {
		if err := c.Append(1, 0, vec(2, 0), vec(2, 0)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestErrors(t *testing.T) {
	c := newCache(t, 2, 4, 4, 8)
	if err := c.Append(0, 0, vec(3, 0), vec(4, 0)); err == nil {
		t.Error("wrong k dim accepted")
	}
	if err := c.Append(0, 5, vec(4, 0), vec(4, 0)); err == nil {
		t.Error("bad layer accepted")
	}
}

func TestNewValidates(t *testing.T) {
	arena := memory.NewArena("a", 1000)
	if _, err := New(arena, 0, 4, 4, 8, F32); err == nil {
		t.Error("zero layers")
	}
	if _, err := New(arena, 1, 0, 4, 8, F32); err == nil {
		t.Error("zero dim")
	}
	tiny := memory.NewArena("tiny", 4)
	if _, err := New(tiny, 1, 4, 4, 100, F32); err == nil {
		t.Error("arena too small for capacity")
	}
}

func TestNewRejectsNonPositiveCapacity(t *testing.T) {
	arena := memory.NewArena("a", 1000)
	if _, err := New(arena, 1, 4, 4, 0, F32); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(arena, 1, 4, 4, -16, F32); err == nil {
		t.Error("negative capacity accepted")
	}
}

// TestAppendExhaustionLeavesLengthConsistent is the regression test for
// the failure-path corruption: an Append that runs out of blocks must
// not advance the stream's length (the seed incremented length before
// the out-of-blocks check, so the cache claimed a token it never
// stored and the next read indexed past the block list).
func TestAppendExhaustionLeavesLengthConsistent(t *testing.T) {
	const dim = 2
	c := newCache(t, 1, dim, 2, 4) // 2 blocks of 2 tokens
	// Two sequences of 2 tokens each drain the pool.
	for s := 0; s < 2; s++ {
		for pos := 0; pos < 2; pos++ {
			if err := c.Append(s, 0, vec(dim, float32(10*s+pos)), vec(dim, float32(10*s+100+pos))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Append(0, 0, vec(dim, 99), vec(dim, 99)); err == nil {
		t.Fatal("want out-of-blocks error")
	} else if !errors.Is(err, ErrOutOfBlocks) {
		t.Fatalf("error is not ErrOutOfBlocks: %v", err)
	}
	if got := c.Len(0); got != 2 {
		t.Fatalf("failed append advanced length to %d", got)
	}
	// Every read of the failed sequence must still see exactly the
	// stored tokens.
	if _, _, ctx := c.BlockView(0, 0, nil, nil); ctx != 2 {
		t.Fatalf("context = %d tokens after failed append, want 2", ctx)
	}
	// Freeing the other sequence lets the survivor grow again and
	// round-trip its full contents.
	c.Release(1)
	if err := c.Append(0, 0, vec(dim, 2), vec(dim, 102)); err != nil {
		t.Fatalf("append after release: %v", err)
	}
	kb, vb, ctx := c.BlockView(0, 0, nil, nil)
	if ctx != 3 || len(kb) != 2 {
		t.Fatalf("blockview: ctx=%d blocks=%d", ctx, len(kb))
	}
	row := 0
	for b, k := range kb {
		for r := 0; r < k.Rows; r++ {
			if k.At(r, 0) != float32(row) || vb[b].At(r, 0) != float32(100+row) {
				t.Fatalf("pos %d: k=%v v=%v", row, k.At(r, 0), vb[b].At(r, 0))
			}
			row++
		}
	}
}

// TestBlockViewMatchesAppended checks the zero-copy views expose exactly
// the appended rows, including a partial last block, and that they
// alias the cache (no copies).
func TestBlockViewMatchesAppended(t *testing.T) {
	const layers, dim, block, n = 2, 3, 4, 11
	c := newCache(t, layers, dim, block, 32)
	for pos := 0; pos < n; pos++ {
		for l := 0; l < layers; l++ {
			if err := c.Append(0, l, vec(dim, float32(100*l+pos)), vec(dim, float32(1000*l+pos))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for l := 0; l < layers; l++ {
		kb, vb, ctx := c.BlockView(0, l, nil, nil)
		if ctx != n {
			t.Fatalf("ctx = %d", ctx)
		}
		if want := (n + block - 1) / block; len(kb) != want || len(vb) != want {
			t.Fatalf("blocks = %d/%d, want %d", len(kb), len(vb), want)
		}
		if last := kb[len(kb)-1]; last.Rows != n%block {
			t.Fatalf("partial block rows = %d, want %d", last.Rows, n%block)
		}
		row := 0
		for b := range kb {
			for r := 0; r < kb[b].Rows; r++ {
				if !slices.Equal(kb[b].Row(r), vec(dim, float32(100*l+row))) {
					t.Fatalf("layer %d pos %d key mismatch", l, row)
				}
				if !slices.Equal(vb[b].Row(r), vec(dim, float32(1000*l+row))) {
					t.Fatalf("layer %d pos %d value mismatch", l, row)
				}
				row++
			}
		}
	}
	// The views alias the cache: a mutation through one view is seen by
	// the next (proving no copy sits in between).
	kb, _, _ := c.BlockView(0, 0, nil, nil)
	kb[0].Set(0, 0, -42)
	if kb2, _, _ := c.BlockView(0, 0, nil, nil); kb2[0].At(0, 0) != -42 {
		t.Fatal("BlockView returned a copy, not a view")
	}
}

// TestBlockViewReusesCallerSlices checks the zero-alloc contract: with
// capacity available, BlockView appends in place.
func TestBlockViewReusesCallerSlices(t *testing.T) {
	c := newCache(t, 1, 2, 2, 8)
	for pos := 0; pos < 5; pos++ {
		if err := c.Append(0, 0, vec(2, float32(pos)), vec(2, 0)); err != nil {
			t.Fatal(err)
		}
	}
	kbuf := make([]tensor.Mat, 0, 8)
	vbuf := make([]tensor.Mat, 0, 8)
	kb, vb, ctx := c.BlockView(0, 0, kbuf, vbuf)
	if ctx != 5 || len(kb) != 3 {
		t.Fatalf("ctx=%d blocks=%d", ctx, len(kb))
	}
	if &kb[0] != &kbuf[:1][0] || &vb[0] != &vbuf[:1][0] {
		t.Fatal("BlockView reallocated despite sufficient capacity")
	}
}

package kvcache

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"moelightning/internal/memory"
	"moelightning/internal/tensor"
)

// TestQuantizedAppendRoundTrip: an Int8 cache quantizes on Append; the
// QBlockView rows attention reads in place — block boundaries and the
// partial last block included — dequantize back within the codec's
// per-group error bound (half a step: maxAbs(group)/254).
func TestQuantizedAppendRoundTrip(t *testing.T) {
	const layers, dim, block, tokens = 2, 64, 4, 11
	arena := memory.NewArena("cache", 1<<20)
	c, err := New(arena, layers, dim, block, 64, Int8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	wantK := make([][]float32, tokens)
	wantV := make([][]float32, tokens)
	for pos := 0; pos < tokens; pos++ {
		k := make([]float32, dim)
		v := make([]float32, dim)
		for i := range k {
			k[i] = rng.Float32()*8 - 4
			v[i] = rng.Float32()*2 - 1
		}
		wantK[pos], wantV[pos] = k, v
		for l := 0; l < layers; l++ {
			if err := c.Append(7, l, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for l := 0; l < layers; l++ {
		kb, _, ctx := c.QBlockView(7, l, nil, nil)
		if ctx != tokens || tensor.QBlocksRows(kb) != tokens {
			t.Fatalf("layer %d ctx = %d over %d view rows, want %d", l, ctx, tensor.QBlocksRows(kb), tokens)
		}
		for pos := 0; pos < tokens; pos++ {
			k, v := rowAt(c, 7, l, pos)
			checkRowWithin(t, k, wantK[pos], GroupSize)
			checkRowWithin(t, v, wantV[pos], GroupSize)
		}
	}
}

func checkRowWithin(t *testing.T, got, want []float32, group int) {
	t.Helper()
	for i := range want {
		lo := (i / group) * group
		hi := lo + group
		if hi > len(want) {
			hi = len(want)
		}
		var maxAbs float64
		for _, v := range want[lo:hi] {
			maxAbs = math.Max(maxAbs, math.Abs(float64(v)))
		}
		if err := math.Abs(float64(got[i] - want[i])); err > maxAbs/254+1e-12 {
			t.Fatalf("col %d: |%g - %g| = %g exceeds bound %g", i, got[i], want[i], err, maxAbs/254)
		}
	}
}

// TestMixedDtypeAppendReleaseInterleaving: an F32 and an Int8 cache
// drawing from the same arena interleave Append and Release without
// disturbing each other's contents or block accounting.
func TestMixedDtypeAppendReleaseInterleaving(t *testing.T) {
	const dim, block = 32, 4
	arena := memory.NewArena("cache", 1<<20)
	cf, err := New(arena, 1, dim, block, 32, F32)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := New(arena, 1, dim, block, 32, Int8)
	if err != nil {
		t.Fatal(err)
	}
	freeF, freeQ := cf.FreeBlocks(), cq.FreeBlocks()
	rng := rand.New(rand.NewSource(5))
	row := func(seed int) []float32 {
		r := make([]float32, dim)
		for i := range r {
			r[i] = float32(seed) + rng.Float32()
		}
		return r
	}
	// Interleave: both caches grow two sequences, then release one and
	// regrow it while the other sequence's contents must hold steady.
	steady := make([][]float32, 6)
	for pos := 0; pos < 6; pos++ {
		steady[pos] = row(pos)
		for _, c := range []*Cache{cf, cq} {
			if err := c.Append(0, 0, steady[pos], steady[pos]); err != nil {
				t.Fatal(err)
			}
			if err := c.Append(1, 0, row(100+pos), row(100+pos)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cf.Release(1)
	cq.Release(1)
	for pos := 0; pos < 9; pos++ {
		for _, c := range []*Cache{cf, cq} {
			if err := c.Append(1, 0, row(200+pos), row(200+pos)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for pos := 0; pos < 6; pos++ {
		if k, _ := rowAt(cf, 0, 0, pos); !slices.Equal(k, steady[pos]) {
			t.Fatalf("f32 seq 0 pos %d clobbered", pos)
		}
		k, _ := rowAt(cq, 0, 0, pos)
		checkRowWithin(t, k, steady[pos], GroupSize)
	}
	cf.Release(0)
	cq.Release(0)
	cf.Release(1)
	cq.Release(1)
	if cf.FreeBlocks() != freeF || cq.FreeBlocks() != freeQ {
		t.Fatalf("block accounting drifted: f32 %d/%d, int8 %d/%d",
			cf.FreeBlocks(), freeF, cq.FreeBlocks(), freeQ)
	}
}

// TestInt8FootprintAndCapacity: the acceptance numbers. A token's
// int8 block share is exactly 9/32 of float32 when kvDim is a multiple
// of the group size, and an arena sized for N float32 sequences holds
// 2N quantized ones with room to spare.
func TestInt8FootprintAndCapacity(t *testing.T) {
	const layers, dim, block, maxContext = 2, 32, 16, 64
	f32Arena := memory.NewArena("f32", 1<<20)
	cf, err := New(f32Arena, layers, dim, block, maxContext, F32)
	if err != nil {
		t.Fatal(err)
	}
	q := &Cache{kvDim: dim, blockTokens: block, dtype: Int8,
		packedCols: tensor.PackedCols(dim), groups: tensor.QGroups(dim, GroupSize)}
	q.rowFloats = q.packedCols + q.groups
	if ratio := float64(q.blockFloats()) / float64(cf.blockFloats()); ratio > 9.0/32 {
		t.Fatalf("int8 block footprint ratio = %v, want <= 9/32", ratio)
	}
	if got, want := q.TokenBytes(), 2*(dim+4*tensor.QGroups(dim, GroupSize)); got != want {
		t.Fatalf("TokenBytes = %d, want %d", got, want)
	}

	// Capacity: an arena that fits exactly N sequences of float32 KV
	// fits 2N quantized ones (9/32 < 1/2), proven by filling them.
	const seqs = 3
	arenaFloats := seqs * maxContext / block * layers * cf.blockFloats()
	exact := memory.NewArena("exact", arenaFloats)
	cf2, err := New(exact, layers, dim, block, seqs*maxContext, F32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exact.Alloc(1); err == nil {
		t.Fatal("arena was not sized exactly for the f32 cache")
	}
	quant := memory.NewArena("quant", arenaFloats)
	cq, err := New(quant, layers, dim, block, 2*seqs*maxContext, Int8)
	if err != nil {
		t.Fatalf("2x sequences did not fit the same arena under int8: %v", err)
	}
	k := make([]float32, dim)
	fill := func(c *Cache, n int) error {
		for s := 0; s < n; s++ {
			for l := 0; l < layers; l++ {
				for pos := 0; pos < maxContext; pos++ {
					if err := c.Append(s, l, k, k); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	if err := fill(cf2, seqs); err != nil {
		t.Fatalf("f32 cache rejected its rated capacity: %v", err)
	}
	if err := fill(cq, 2*seqs); err != nil {
		t.Fatalf("int8 cache rejected 2x the sequences: %v", err)
	}
	if err := cq.Append(2*seqs, 0, k, k); !errors.Is(err, ErrOutOfBlocks) && err != nil {
		t.Fatal(err)
	}
}

// TestBlockViewDtypeGuards: reading a cache through the wrong view
// panics loudly instead of misinterpreting codes as floats.
func TestBlockViewDtypeGuards(t *testing.T) {
	arena := memory.NewArena("cache", 1<<18)
	cf, err := New(arena, 1, 8, 4, 8, F32)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := New(arena, 1, 8, 4, 8, Int8)
	if err != nil {
		t.Fatal(err)
	}
	expectPanic(t, func() { cf.QBlockView(0, 0, nil, nil) })
	expectPanic(t, func() { cq.BlockView(0, 0, nil, nil) })
}

func expectPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// TestParseDType covers the knob strings the CLIs expose.
func TestParseDType(t *testing.T) {
	for s, want := range map[string]DType{"": F32, "f32": F32, "float32": F32, "int8": Int8} {
		got, err := ParseDType(s)
		if err != nil || got != want {
			t.Fatalf("ParseDType(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseDType("int4"); err == nil {
		t.Fatal("int4 accepted (not implemented)")
	}
	if F32.String() != "f32" || Int8.String() != "int8" {
		t.Fatalf("String(): %q %q", F32.String(), Int8.String())
	}
}

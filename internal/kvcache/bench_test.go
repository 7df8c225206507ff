package kvcache

import (
	"testing"

	"moelightning/internal/memory"
	"moelightning/internal/tensor"
)

// The benchmarks below time the way attention reads the paged cache:
// the zero-copy blockwise path (BlockView + a one-item AttendMany, which
// runs inline, walking the blocks in place), float32 and int8. Same GQA
// problem, same context, same geometry as one decode-step sequence.

const (
	benchCtx     = 512
	benchNQ      = 8
	benchNKV     = 2
	benchHeadDim = 64
	benchBlock   = 16
)

func benchCache(b *testing.B) (*Cache, []float32) { return benchCacheDType(b, F32) }

func benchCacheDType(b *testing.B, dtype DType) (*Cache, []float32) {
	b.Helper()
	kvDim := benchNKV * benchHeadDim
	arena := memory.NewArena("bench", 2*benchCtx*kvDim*2)
	c, err := New(arena, 1, kvDim, benchBlock, benchCtx, dtype)
	if err != nil {
		b.Fatal(err)
	}
	k := make([]float32, kvDim)
	v := make([]float32, kvDim)
	for pos := 0; pos < benchCtx; pos++ {
		for i := range k {
			k[i] = float32(pos+i) * 0.001
			v[i] = float32(pos-i) * 0.001
		}
		if err := c.Append(0, 0, k, v); err != nil {
			b.Fatal(err)
		}
	}
	q := make([]float32, benchNQ*benchHeadDim)
	for i := range q {
		q[i] = float32(i%7) * 0.1
	}
	return c, q
}

// BenchmarkBlockwiseAttend measures the zero-copy path: BlockView over
// the cache blocks, attention walks them in place.
func BenchmarkBlockwiseAttend(b *testing.B) {
	c, q := benchCache(b)
	kvDim := benchNKV * benchHeadDim
	kb := make([]tensor.Mat, 0, benchCtx/benchBlock+1)
	vb := make([]tensor.Mat, 0, benchCtx/benchBlock+1)
	const group = benchNQ / benchNKV // one score lane per query head of a GQA group
	items := []tensor.AttnItem{{
		Out: make([]float32, benchNQ*benchHeadDim), Q: q,
		Scores: make([]float32, group*benchCtx),
	}}
	b.SetBytes(int64(2 * benchCtx * kvDim * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kb, vb, _ = c.BlockView(0, 0, kb[:0], vb[:0])
		items[0].KeyBlocks, items[0].ValueBlocks = kb, vb
		tensor.AttendMany(items, benchNQ, benchNKV, benchHeadDim)
	}
}

// BenchmarkBlockwiseAttendQuantKV is the zero-copy path over an Int8
// cache: QBlockView plus the dequant-on-the-fly kernel. The payload
// read per attention call is ~9/32 of the float32 path's.
func BenchmarkBlockwiseAttendQuantKV(b *testing.B) {
	c, q := benchCacheDType(b, Int8)
	kvDim := benchNKV * benchHeadDim
	kb := make([]tensor.QBlock, 0, benchCtx/benchBlock+1)
	vb := make([]tensor.QBlock, 0, benchCtx/benchBlock+1)
	const group = benchNQ / benchNKV
	items := []tensor.AttnItem{{
		Out: make([]float32, benchNQ*benchHeadDim), Q: q,
		Scores: make([]float32, group*benchCtx), RowScratch: make([]float32, benchHeadDim),
	}}
	b.SetBytes(int64(2 * benchCtx * (kvDim + 4*tensor.QGroups(kvDim, GroupSize))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kb, vb, _ = c.QBlockView(0, 0, kb[:0], vb[:0])
		items[0].KeyQBlocks, items[0].ValueQBlocks = kb, vb
		tensor.AttendMany(items, benchNQ, benchNKV, benchHeadDim)
	}
}

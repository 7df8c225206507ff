package kvcache

import (
	"math/rand"
	"slices"
	"testing"

	"moelightning/internal/memory"
	"moelightning/internal/tensor"
)

// TestViewMatchesHandBuiltItems: for random context lengths — empty, a
// partial last block, exactly full blocks — and both codecs, the items
// a View yields attend bit-identically to items assembled from
// BlockView / QBlockView by hand, one view reused across every
// sequence; and refilling a warm view allocates nothing.
func TestViewMatchesHandBuiltItems(t *testing.T) {
	const nq, nkv, headDim, block = 4, 2, 16, 4
	const kvDim, qDim, group = nkv * headDim, nq * headDim, nq / nkv
	rng := rand.New(rand.NewSource(23))
	lens := []int{0, 1, block - 1, block, block + 1, 3 * block}
	for i := 0; i < 6; i++ {
		lens = append(lens, rng.Intn(5*block))
	}
	fill := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = rng.Float32() - 0.5
		}
		return x
	}
	for _, dtype := range []DType{F32, Int8} {
		total := 0
		for _, n := range lens {
			total += n + block
		}
		c, err := New(memory.NewArena("view", 1<<20), 1, kvDim, block, total, dtype)
		if err != nil {
			t.Fatal(err)
		}
		var v View
		for seq, n := range lens {
			for pos := 0; pos < n; pos++ {
				if err := c.Append(seq, 0, fill(kvDim), fill(kvDim)); err != nil {
					t.Fatal(err)
				}
			}
			// By hand, the way every caller did before the view: the codec
			// picks the block-view method and the fields.
			var one tensor.AttnItem
			var many tensor.CausalItem
			if dtype == Int8 {
				k, val, ctx := c.QBlockView(seq, 0, nil, nil)
				one = tensor.AttnItem{KeyQBlocks: k, ValueQBlocks: val,
					Scores: make([]float32, group*ctx), RowScratch: make([]float32, headDim)}
				many = tensor.CausalItem{KeyQBlocks: k, ValueQBlocks: val}
			} else {
				k, val, ctx := c.BlockView(seq, 0, nil, nil)
				one = tensor.AttnItem{KeyBlocks: k, ValueBlocks: val, Scores: make([]float32, group*ctx)}
				many = tensor.CausalItem{KeyBlocks: k, ValueBlocks: val}
			}

			c.View(seq, 0, &v)
			q := fill(qDim)
			one.Q, one.Out = q, make([]float32, qDim)
			got := v.AttnItem(make([]float32, qDim), q)
			tensor.AttendMany([]tensor.AttnItem{one, got}, nq, nkv, headDim)
			if !slices.Equal(got.Out, one.Out) {
				t.Errorf("%v, %d tokens: the view's item attends to %v, the hand-built one to %v", dtype, n, got.Out, one.Out)
			}

			// The last tokens of the context as a prefill chunk.
			rows := min(n, 3)
			many.Queries, many.Out = tensor.FromSlice(rows, qDim, fill(rows*qDim)), tensor.NewMat(rows, qDim)
			many.StartPos = n - rows
			causal := v.CausalItem(tensor.NewMat(rows, qDim), many.Queries, n-rows)
			tensor.AttendCausalMany([]tensor.CausalItem{many, causal}, nq, nkv, headDim)
			if !slices.Equal(causal.Out.Data, many.Out.Data) {
				t.Errorf("%v, %d tokens: the view's causal item diverges from the hand-built one", dtype, n)
			}
		}

		// Warm: v has held the longest context, so pointing it at any
		// sequence and taking an item reuses what it has.
		out, q := make([]float32, qDim), fill(qDim)
		seq := 0
		allocs := testing.AllocsPerRun(len(lens), func() {
			c.View(seq%len(lens), 0, &v)
			_ = v.AttnItem(out, q)
			seq++
		})
		if allocs != 0 {
			t.Errorf("%v: a warm refill allocates %v objects, want 0", dtype, allocs)
		}
	}
}

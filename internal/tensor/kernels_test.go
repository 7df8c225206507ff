package tensor

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// matMulTNaive is the seed scalar kernel, kept as the equivalence
// oracle for the blocked and parallel paths.
func matMulTNaive(dst, a, bT Mat) {
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		for j := 0; j < bT.Rows; j++ {
			br := bT.Row(j)
			var sum float32
			for k, av := range ar {
				sum += float32(av * br[k])
			}
			dr[j] = sum
		}
	}
}

func randMat(rng *rand.Rand, rows, cols int) Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// TestMatMulTBlockedBitIdentical checks the 4x2-tiled kernel against
// the naive loop bit for bit on shapes covering every tail case (rows
// and cols not multiples of the tile).
func TestMatMulTBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 3}, {2, 5, 1}, {3, 8, 2}, {4, 4, 4},
		{5, 3, 7}, {7, 16, 9}, {8, 1, 8}, {9, 33, 5}, {12, 64, 17},
		{13, 31, 13}, {16, 128, 32},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMat(rng, m, k)
		bT := randMat(rng, n, k)
		want := NewMat(m, n)
		matMulTNaive(want, a, bT)
		got := NewMat(m, n)
		MatMulT(got, a, bT)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape %v: MatMulT[%d] = %v, want %v (must be bit-identical)",
					sh, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulTParallelBitIdentical checks the row-tiled parallel path
// against the sequential kernel bit for bit, on an explicit multi-worker
// pool so the fan-out actually happens even on one CPU.
func TestMatMulTParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pool := NewPool(4)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(70), 1+rng.Intn(40)
		a := randMat(rng, m, k)
		bT := randMat(rng, n, k)
		want := NewMat(m, n)
		MatMulT(want, a, bT)
		got := NewMat(m, n)
		pool.ParallelFor(m, 1, func(lo, hi int) {
			matMulTBlock(got, a, bT, lo, hi, 0, n)
		})
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d [%d,%d,%d]: parallel[%d] = %v, want %v",
					trial, m, k, n, i, got.Data[i], want.Data[i])
			}
		}
		// Column tiling (the few-rows x many-columns fan-out, e.g. the
		// LM-head GEMV) must agree bit for bit too.
		gotC := NewMat(m, n)
		pool.ParallelFor(n, 1, func(lo, hi int) {
			matMulTBlock(gotC, a, bT, 0, m, lo, hi)
		})
		for i := range want.Data {
			if gotC.Data[i] != want.Data[i] {
				t.Fatalf("trial %d [%d,%d,%d]: col-parallel[%d] = %v, want %v",
					trial, m, k, n, i, gotC.Data[i], want.Data[i])
			}
		}
		// The exported entry point must agree too (it may or may not
		// parallelize depending on size and GOMAXPROCS).
		got2 := NewMat(m, n)
		MatMulTParallel(got2, a, bT)
		for i := range want.Data {
			if got2.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: MatMulTParallel[%d] = %v, want %v", trial, i, got2.Data[i], want.Data[i])
			}
		}
	}
}

// topKQuadratic is the seed O(n*k^2) selection, kept as the oracle for
// the single-pass rewrite (including its lowest-index tie-break).
func topKQuadratic(x []float32, k int) []int {
	if k > len(x) {
		k = len(x)
	}
	idx := make([]int, 0, k)
	contains := func(xs []int, v int) bool {
		for _, x := range xs {
			if x == v {
				return true
			}
		}
		return false
	}
	for n := 0; n < k; n++ {
		best := -1
		for i, v := range x {
			if contains(idx, i) {
				continue
			}
			if best < 0 || v > x[best] {
				best = i
			}
		}
		idx = append(idx, best)
	}
	return idx
}

// TestTopKMatchesQuadraticOracle hammers the single-pass TopK with
// duplicate-heavy inputs, where the tie-break determinism matters.
func TestTopKMatchesQuadraticOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	buf := make([]int, 0, 16)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(24)
		k := 1 + rng.Intn(n+2) // sometimes > n, must clamp
		x := make([]float32, n)
		for i := range x {
			// Few distinct values => many exact ties.
			x[i] = float32(rng.Intn(5))
		}
		want := topKQuadratic(x, k)
		got := TopK(x, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (x=%v k=%d): TopK = %v, want %v", trial, x, k, got, want)
			}
		}
		into := TopKInto(buf, x, k)
		for i := range want {
			if into[i] != want[i] {
				t.Fatalf("trial %d: TopKInto = %v, want %v", trial, into, want)
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if got := TopK(nil, 3); len(got) != 0 {
		t.Fatalf("TopK(nil) = %v", got)
	}
	if got := TopK([]float32{1, 2}, 0); len(got) != 0 {
		t.Fatalf("TopK(k=0) = %v", got)
	}
	if got := TopK([]float32{1, 2}, -1); len(got) != 0 {
		t.Fatalf("TopK(k=-1) = %v", got)
	}
}

// TestSiLUMulMatchesUnfused checks the fused activation against
// SiLU-then-multiply bit for bit.
func TestSiLUMulMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		gate := make([]float32, n)
		up := make([]float32, n)
		for i := range gate {
			gate[i] = rng.Float32()*8 - 4
			up[i] = rng.Float32()*8 - 4
		}
		want := append([]float32(nil), gate...)
		SiLU(want)
		for i := range want {
			want[i] *= up[i]
		}
		got := make([]float32, n)
		SiLUMul(got, gate, up)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: SiLUMul[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
		// Aliasing dst onto gate must give the same result.
		SiLUMul(gate, gate, up)
		for i := range want {
			if gate[i] != want[i] {
				t.Fatalf("trial %d: aliased SiLUMul[%d] = %v, want %v", trial, i, gate[i], want[i])
			}
		}
	}
}

// TestAttendManyMatchesAttendOne checks the batched attention fan-out
// against sequential AttendOne calls bit for bit.
func TestAttendManyMatchesAttendOne(t *testing.T) {
	const nq, nkv, dh = 4, 2, 4
	rng := rand.New(rand.NewSource(41))
	items := make([]AttnItem, 9)
	wants := make([][]float32, len(items))
	for i := range items {
		ctx := 1 + rng.Intn(12)
		q := make([]float32, nq*dh)
		for j := range q {
			q[j] = rng.Float32() - 0.5
		}
		keys := randMat(rng, ctx, nkv*dh)
		values := randMat(rng, ctx, nkv*dh)
		want := make([]float32, nq*dh)
		AttendOne(want, q, keys, values, nq, nkv, dh, nil)
		wants[i] = want
		items[i] = AttnItem{
			Out: make([]float32, nq*dh), Q: q,
			Keys: keys, Values: values,
			Scores: make([]float32, ctx),
		}
	}
	AttendMany(items, nq, nkv, dh)
	for i, it := range items {
		for j := range it.Out {
			if it.Out[j] != wants[i][j] {
				t.Fatalf("item %d out[%d] = %v, want %v", i, j, it.Out[j], wants[i][j])
			}
		}
	}
}

// TestPoolParallelForCoverage checks every index is visited exactly
// once across chunk splits, including n < workers and grain clamping,
// and that chunks start on grain boundaries.
func TestPoolParallelForCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		pool := NewPool(workers)
		for _, n := range []int{0, 1, 2, 3, 5, 16, 33, 100} {
			for _, grain := range []int{1, 4, 8, 50} {
				visits := make([]int32, n)
				pool.ParallelFor(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi || lo%grain != 0 {
						t.Errorf("bad chunk [%d,%d) for n=%d grain=%d", lo, hi, n, grain)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times",
							workers, n, grain, i, v)
					}
				}
			}
		}
	}
}

// TestPoolConcurrentCallers drives one pool from several goroutines at
// once, the way distinct pipeline lanes share the default pool.
func TestPoolConcurrentCallers(t *testing.T) {
	pool := NewPool(4)
	done := make(chan bool, 8)
	for c := 0; c < 8; c++ {
		go func() {
			var total int64
			for iter := 0; iter < 50; iter++ {
				var sum int64
				pool.ParallelFor(97, 1, func(lo, hi int) {
					var s int64
					for i := lo; i < hi; i++ {
						s += int64(i)
					}
					atomic.AddInt64(&sum, s)
				})
				total += atomic.LoadInt64(&sum)
			}
			done <- total == 50*97*96/2
		}()
	}
	for c := 0; c < 8; c++ {
		if !<-done {
			t.Fatal("concurrent ParallelFor lost or duplicated work")
		}
	}
}

func TestDefaultPoolSized(t *testing.T) {
	if got, want := Default().Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default pool workers = %d, want GOMAXPROCS = %d", got, want)
	}
}

// splitBlocks partitions a [ctx, cols] matrix into dense block copies
// of the given token counts (the paged-KV shape BlockView produces).
func splitBlocks(m Mat, sizes []int) []Mat {
	var blocks []Mat
	row := 0
	for _, n := range sizes {
		b := NewMat(n, m.Cols)
		copy(b.Data, m.Data[row*m.Cols:(row+n)*m.Cols])
		blocks = append(blocks, b)
		row += n
	}
	return blocks
}

// randBlockSizes splits ctx into random positive chunks, exercising
// full blocks, partial tails and single-token blocks.
func randBlockSizes(rng *rand.Rand, ctx int) []int {
	var sizes []int
	for left := ctx; left > 0; {
		n := 1 + rng.Intn(left)
		sizes = append(sizes, n)
		left -= n
	}
	return sizes
}

// TestAttendOneBlocksBitIdentical checks the blockwise kernel against
// AttendOne over the flat context bit for bit, across random block
// boundaries (including a single all-covering block and all-singleton
// blocks).
func TestAttendOneBlocksBitIdentical(t *testing.T) {
	const nq, nkv, dh = 4, 2, 4
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		ctx := 1 + rng.Intn(40)
		q := make([]float32, nq*dh)
		for j := range q {
			q[j] = rng.Float32() - 0.5
		}
		keys := randMat(rng, ctx, nkv*dh)
		values := randMat(rng, ctx, nkv*dh)
		want := make([]float32, nq*dh)
		AttendOne(want, q, keys, values, nq, nkv, dh, nil)

		var sizes []int
		switch trial % 3 {
		case 0:
			sizes = randBlockSizes(rng, ctx)
		case 1:
			sizes = []int{ctx} // one covering block
		default:
			for i := 0; i < ctx; i++ { // every block a single token
				sizes = append(sizes, 1)
			}
		}
		kb := splitBlocks(keys, sizes)
		vb := splitBlocks(values, sizes)
		got := make([]float32, nq*dh)
		AttendOneBlocks(got, q, kb, vb, nq, nkv, dh, make([]float32, ctx))
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d (ctx=%d blocks=%v): out[%d] = %v, want %v (must be bit-identical)",
					trial, ctx, sizes, j, got[j], want[j])
			}
		}
	}
}

// TestAttendManyMixedItemsBitIdentical drives AttendMany with a mix of
// flat and paged items and checks both against sequential AttendOne.
func TestAttendManyMixedItemsBitIdentical(t *testing.T) {
	const nq, nkv, dh = 4, 2, 4
	rng := rand.New(rand.NewSource(52))
	items := make([]AttnItem, 10)
	wants := make([][]float32, len(items))
	for i := range items {
		ctx := 1 + rng.Intn(20)
		q := make([]float32, nq*dh)
		for j := range q {
			q[j] = rng.Float32() - 0.5
		}
		keys := randMat(rng, ctx, nkv*dh)
		values := randMat(rng, ctx, nkv*dh)
		want := make([]float32, nq*dh)
		AttendOne(want, q, keys, values, nq, nkv, dh, nil)
		wants[i] = want
		it := AttnItem{Out: make([]float32, nq*dh), Q: q, Scores: make([]float32, ctx)}
		if i%2 == 0 {
			sizes := randBlockSizes(rng, ctx)
			it.KeyBlocks = splitBlocks(keys, sizes)
			it.ValueBlocks = splitBlocks(values, sizes)
		} else {
			it.Keys, it.Values = keys, values
		}
		items[i] = it
	}
	AttendMany(items, nq, nkv, dh)
	for i, it := range items {
		for j := range it.Out {
			if it.Out[j] != wants[i][j] {
				t.Fatalf("item %d out[%d] = %v, want %v", i, j, it.Out[j], wants[i][j])
			}
		}
	}
}

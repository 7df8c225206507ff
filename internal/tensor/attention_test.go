package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// attnMat fills a matrix with values in [-1, 1) salted with the finite
// inputs a vector unit could treat differently from scalar code: signed
// zeros and denormals.
func attnMat(rng *rand.Rand, rows, cols int) Mat {
	salt := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -3e-39}
	m := randMat(rng, rows, cols)
	for i := range m.Data {
		if rng.Intn(16) == 0 {
			m.Data[i] = salt[rng.Intn(len(salt))]
		}
	}
	return m
}

// attendOneBlock is single-token attention over a context held as one
// float32 block: the oracle the paged and int8 paths are checked
// against (block boundaries do not change the output).
func attendOneBlock(out, q []float32, keys, values Mat, nq, nkv, headDim int) {
	attend(out, q, kvBlocks{f: []Mat{keys}}, kvBlocks{f: []Mat{values}}, nq, nkv, headDim, nil, nil)
}

// quantBlocks splits a [ctx, cols] matrix into int8 blocks of
// blockTokens rows, the last possibly partial.
func quantBlocks(m Mat, blockTokens int) []QBlock {
	var blocks []QBlock
	for _, b := range blockify(m, blockTokens) {
		codes, scales, _ := quantizeMat(b, QGroupSize)
		blocks = append(blocks, QBlock{Rows: b.Rows, Cols: b.Cols, Group: QGroupSize, Codes: codes, Scales: scales})
	}
	return blocks
}

// TestAttendVectorMatchesGo is the attention kernels' contract as a
// property: with the vector kernels on and with them off, AttendMany and
// AttendCausalMany write the same bits — over one-block, float32-block
// and int8-block contexts of 1 to 600 tokens in blocks of 5, 8 and 16 (the
// last block mostly partial), GQA groups of 1, 2, 3, 4 and 8, the head
// dims the kernels take (multiples of 8) and one they leave to Go (10),
// and causal chunks that start past position 0.
func TestAttendVectorMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels (host without AVX2, or a -race build): the Go kernels are the only ones here")
	}
	rng := rand.New(rand.NewSource(29))
	groups := []int{1, 2, 3, 4, 8}
	dims := []int{8, 16, 24, 64, 128, 10}
	blockSizes := []int{5, 8, 16}
	for trial := 0; trial < len(groups)*len(dims)*len(blockSizes); trial++ {
		group := groups[trial%len(groups)]
		headDim := dims[trial/len(groups)%len(dims)]
		block := blockSizes[trial/(len(groups)*len(dims))]
		nkv := 1 + rng.Intn(2)
		nq := nkv * group
		ctx := 1 + rng.Intn(600)
		if trial%7 == 0 {
			ctx = block * (1 + rng.Intn(600/block)) // every block full
		}
		keys, values := attnMat(rng, ctx, nkv*headDim), attnMat(rng, ctx, nkv*headDim)
		kb, vb := blockify(keys, block), blockify(values, block)
		qkb, qvb := quantBlocks(keys, block), quantBlocks(values, block)
		q := attnMat(rng, 1, nq*headDim).Data
		chunk := 1 + rng.Intn(min(ctx, 6))
		queries := attnMat(rng, chunk, nq*headDim)

		run := func(vector bool) [][]float32 {
			SetVectorTile(vector)
			items := []AttnItem{
				{KeyBlocks: []Mat{keys}, ValueBlocks: []Mat{values}},
				{KeyBlocks: kb, ValueBlocks: vb},
				{KeyQBlocks: qkb, ValueQBlocks: qvb},
			}
			var outs [][]float32
			for i := range items {
				items[i].Q, items[i].Out = q, make([]float32, nq*headDim)
				items[i].Scores, items[i].RowScratch = make([]float32, group*ctx), make([]float32, headDim)
				outs = append(outs, items[i].Out)
			}
			AttendMany(items, nq, nkv, headDim)
			// The last chunk tokens of the context as a prefill chunk.
			causal := []CausalItem{
				{KeyBlocks: kb, ValueBlocks: vb},
				{KeyQBlocks: qkb, ValueQBlocks: qvb},
			}
			for i := range causal {
				causal[i].Queries, causal[i].Out, causal[i].StartPos = queries, NewMat(chunk, nq*headDim), ctx-chunk
				outs = append(outs, causal[i].Out.Data)
			}
			AttendCausalMany(causal, nq, nkv, headDim)
			return outs
		}
		was := SetVectorTile(false)
		goOut, vecOut := run(false), run(true)
		SetVectorTile(was)
		names := []string{"one block", "f32 blocks", "int8 blocks", "causal f32", "causal int8"}
		for i := range goOut {
			for j := range goOut[i] {
				if g, v := math.Float32bits(goOut[i][j]), math.Float32bits(vecOut[i][j]); g != v {
					t.Fatalf("trial %d (group %d, nkv %d, head dim %d, block %d, ctx %d, chunk %d) %s: out[%d] = %#08x on the vector kernels, %#08x on Go",
						trial, group, nkv, headDim, block, ctx, chunk, names[i], j, v, g)
				}
			}
		}
	}
}

// TestAttendManyNoAllocs: given the scratch sizes callers pass — Scores
// of group x ctx and RowScratch of headDim — AttendMany allocates
// nothing on either kernel set, float32 or int8, at the bench model's
// shape (AllocsPerRun measures at GOMAXPROCS 1, so the default pool is
// swapped for a one-worker one).
func TestAttendManyNoAllocs(t *testing.T) {
	Default()
	was := defaultPool
	defaultPool = NewPool(1)
	defer func() { defaultPool = was }()
	const nq, nkv, headDim, ctx, block = 8, 2, 16, 128, 16
	rng := rand.New(rand.NewSource(30))
	keys, values := randMat(rng, ctx, nkv*headDim), randMat(rng, ctx, nkv*headDim)
	items := []AttnItem{
		{KeyBlocks: blockify(keys, block), ValueBlocks: blockify(values, block)},
		{KeyQBlocks: quantBlocks(keys, block), ValueQBlocks: quantBlocks(values, block)},
	}
	for i := range items {
		items[i].Q, items[i].Out = randMat(rng, 1, nq*headDim).Data, make([]float32, nq*headDim)
		items[i].Scores, items[i].RowScratch = make([]float32, nq/nkv*ctx), make([]float32, headDim)
	}
	eachTile(t, func(t *testing.T) {
		for i := range items {
			if n := testing.AllocsPerRun(10, func() { AttendMany(items[i:i+1], nq, nkv, headDim) }); n != 0 {
				t.Errorf("item %d: AttendMany allocates %v objects per call, want 0", i, n)
			}
		}
	})
}

package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/tensor"
)

// TestPostAttentionBatchMatchesPerToken is the bit-identity guarantee
// behind the expert-grouped rewrite: running a whole micro-batch
// through postAttention must produce exactly the hidden states and
// routing decisions of n independent single-token calls, because the
// sequential reference engine runs the n=1 path — and, for the decode
// step, of postRoute per group followed by one expertFFN over them all.
func TestPostAttentionBatchMatchesPerToken(t *testing.T) {
	cfg := model.Tiny()
	cpu := memory.NewArena("cpu", 1<<22)
	w, err := NewRandomWeights(cpu, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	layout := w.Layout
	rng := rand.New(rand.NewSource(5))

	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		layer := w.Layers[0].Data()
		attn := tensor.NewMat(n, cfg.QDim())
		x := tensor.NewMat(n, cfg.Hidden)
		for i := range attn.Data {
			attn.Data[i] = rng.Float32() - 0.5
		}
		for i := range x.Data {
			x.Data[i] = rng.Float32() - 0.5
		}
		xBatch := x.Clone()
		batchScratch := newFFNScratch(layout, n)
		chosenBatch := postAttention(layout, layer, residentExperts{layout: layout, data: layer}, attn, xBatch, batchScratch)
		// Copy before the next call reuses the scratch.
		gotChosen := make([][]int, n)
		for i, c := range chosenBatch {
			gotChosen[i] = append([]int(nil), c...)
		}

		tokScratch := newFFNScratch(layout, 1)
		for i := 0; i < n; i++ {
			xi := tensor.FromSlice(1, cfg.Hidden, append([]float32(nil), x.Row(i)...))
			ai := tensor.FromSlice(1, cfg.QDim(), attn.Row(i))
			chosen := postAttention(layout, layer, residentExperts{layout: layout, data: layer}, ai, xi, tokScratch)
			for j := range xi.Data {
				if xi.Data[j] != xBatch.At(i, j) {
					t.Fatalf("n=%d token %d dim %d: batch %v != per-token %v (must be bit-identical)",
						n, i, j, xBatch.At(i, j), xi.Data[j])
				}
			}
			if len(chosen[0]) != len(gotChosen[i]) {
				t.Fatalf("n=%d token %d: chose %v vs %v", n, i, gotChosen[i], chosen[0])
			}
			for j, e := range chosen[0] {
				if gotChosen[i][j] != e {
					t.Fatalf("n=%d token %d: routing diverges %v vs %v", n, i, gotChosen[i], chosen[0])
				}
			}
		}

		// The decode step's shape: two groups route one after the other
		// into their own rows of one scratch — the second group first, at
		// a non-zero offset — and one expertFFN serves both. Each group
		// must come out as postAttention leaves it alone.
		if n < 2 {
			continue
		}
		n1 := n / 2
		xSplit := x.Clone()
		splitScratch := newFFNScratch(layout, n)
		group := func(m tensor.Mat, lo, hi int) tensor.Mat {
			return tensor.FromSlice(hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols])
		}
		postRoute(layout, layer, group(attn, n1, n), group(xSplit, n1, n), splitScratch, n1)
		postRoute(layout, layer, group(attn, 0, n1), group(xSplit, 0, n1), splitScratch, 0)
		splitChosen := expertFFN(layout, residentExperts{layout: layout, data: layer}, xSplit, splitScratch)
		for _, g := range [][2]int{{0, n1}, {n1, n}} {
			xAlone := group(x, g[0], g[1]).Clone()
			chosen := postAttention(layout, layer, residentExperts{layout: layout, data: layer},
				group(attn, g[0], g[1]), xAlone, newFFNScratch(layout, g[1]-g[0]))
			for i := range chosen {
				if !reflect.DeepEqual(chosen[i], splitChosen[g[0]+i]) {
					t.Fatalf("n=%d rows %d..%d: row %d routes to %v alone, %v in the split call", n, g[0], g[1], i, chosen[i], splitChosen[g[0]+i])
				}
				for j := 0; j < cfg.Hidden; j++ {
					if xAlone.At(i, j) != xSplit.At(g[0]+i, j) {
						t.Fatalf("n=%d rows %d..%d: row %d dim %d: alone %v != routed at an offset, one expertFFN %v (must be bit-identical)",
							n, g[0], g[1], i, j, xAlone.At(i, j), xSplit.At(g[0]+i, j))
					}
				}
			}
		}
	}
}

// TestPreAttentionBatchMatchesPerToken checks the batched QKV
// projection path the same way.
func TestPreAttentionBatchMatchesPerToken(t *testing.T) {
	cfg := model.Tiny()
	cpu := memory.NewArena("cpu", 1<<22)
	w, err := NewRandomWeights(cpu, cfg, 98)
	if err != nil {
		t.Fatal(err)
	}
	layout := w.Layout
	rng := rand.New(rand.NewSource(6))
	q, kv := cfg.QDim(), cfg.KVDim()

	for _, n := range []int{1, 2, 4, 7} {
		layer := w.Layers[1].Data()
		x := tensor.NewMat(n, cfg.Hidden)
		for i := range x.Data {
			x.Data[i] = rng.Float32() - 0.5
		}
		positions := make([]int, n)
		for i := range positions {
			positions[i] = rng.Intn(40)
		}
		qkvBatch := make([]float32, n*(q+2*kv))
		preAttention(layout, layer, x, positions, qkvBatch, make([]float32, n*cfg.Hidden))
		Qb, Kb, Vb := qkvViews(qkvBatch, n, q, kv)

		tokNormed := make([]float32, cfg.Hidden)
		qkvTok := make([]float32, q+2*kv)
		for i := 0; i < n; i++ {
			xi := tensor.FromSlice(1, cfg.Hidden, x.Row(i))
			preAttention(layout, layer, xi, positions[i:i+1], qkvTok, tokNormed)
			Qt, Kt, Vt := qkvViews(qkvTok, 1, q, kv)
			for j := range Qt.Data {
				if Qt.Data[j] != Qb.At(i, j) {
					t.Fatalf("n=%d token %d: Q[%d] batch %v != per-token %v", n, i, j, Qb.At(i, j), Qt.Data[j])
				}
			}
			for j := range Kt.Data {
				if Kt.Data[j] != Kb.At(i, j) {
					t.Fatalf("n=%d token %d: K[%d] diverges", n, i, j)
				}
				if Vt.Data[j] != Vb.At(i, j) {
					t.Fatalf("n=%d token %d: V[%d] diverges", n, i, j)
				}
			}
		}
	}
}

// TestPipelineBitIdenticalHiddenStates goes beyond token equality: the
// final hidden states of pipeline and reference must match bit for bit
// after generation (argmax agreement could mask small drift).
func TestPipelineBitIdenticalHiddenStates(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	const seqs, gen = 5, 6
	prompts := testPrompts(seqs, 3, 8, cfg.VocabSize)

	ref, err := NewReference(w, memory.NewArena("rc", 1<<22), seqs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Generate(prompts, gen); err != nil {
		t.Fatal(err)
	}

	pl, err := NewPipeline(w, gpu, pinned, cacheArena, seqs, Config{MicroBatch: 2, MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if _, err := pl.Generate(prompts, gen); err != nil {
		t.Fatal(err)
	}

	for s := 0; s < seqs; s++ {
		refRow := ref.hidden.Row(s)
		plRow := pl.hidden.Row(s)
		for i := range refRow {
			if refRow[i] != plRow[i] {
				t.Fatalf("seq %d hidden[%d]: pipeline %v != reference %v (must be bit-identical)",
					s, i, plRow[i], refRow[i])
			}
		}
	}
}

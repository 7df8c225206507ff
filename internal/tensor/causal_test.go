package tensor

import (
	"math/rand"
	"testing"
)

// blockify splits a flat [ctx, kvDim] matrix into block views of
// blockTokens rows (the last possibly partial), mirroring the paged
// cache layout.
func blockify(m Mat, blockTokens int) []Mat {
	var blocks []Mat
	for lo := 0; lo < m.Rows; lo += blockTokens {
		hi := lo + blockTokens
		if hi > m.Rows {
			hi = m.Rows
		}
		blocks = append(blocks, Mat{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]})
	}
	return blocks
}

// TestBlocksPrefix: prefix views over a block list expose exactly the
// first n rows, in order, for every n.
func TestBlocksPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMat(11, 6)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	blocks := blockify(m, 4)
	for n := 0; n <= m.Rows; n++ {
		prefix := BlocksPrefix(nil, blocks, n)
		if got := BlocksRows(prefix); got != n {
			t.Fatalf("prefix(%d) has %d rows", n, got)
		}
		row := 0
		for _, b := range prefix {
			for r := 0; r < b.Rows; r++ {
				for c := 0; c < b.Cols; c++ {
					if b.Row(r)[c] != m.At(row, c) {
						t.Fatalf("prefix(%d) row %d col %d mismatch", n, row, c)
					}
				}
				row++
			}
		}
	}
}

// TestAttendCausalManyMatchesPerToken: the packed cross-sequence
// causal fan-out must be bit-identical to attending every token
// sequentially over its own prefix held as one block — for sequences of different
// lengths, and for queries split across token-budget chunks via
// StartPos.
func TestAttendCausalManyMatchesPerToken(t *testing.T) {
	const nq, nkv, headDim, blockTokens = 4, 2, 8, 4
	kvDim, qDim := nkv*headDim, nq*headDim
	rng := rand.New(rand.NewSource(17))
	lens := []int{1, 5, 9, 14}

	type seq struct {
		queries, out, want Mat
		keys, values       Mat
		blocksK, blocksV   []Mat
	}
	seqs := make([]seq, len(lens))
	for i, n := range lens {
		s := &seqs[i]
		s.queries = NewMat(n, qDim)
		s.out = NewMat(n, qDim)
		s.want = NewMat(n, qDim)
		s.keys = NewMat(n, kvDim)
		s.values = NewMat(n, kvDim)
		for j := range s.queries.Data {
			s.queries.Data[j] = rng.Float32()*2 - 1
		}
		for j := range s.keys.Data {
			s.keys.Data[j] = rng.Float32()*2 - 1
			s.values.Data[j] = rng.Float32()*2 - 1
		}
		s.blocksK = blockify(s.keys, blockTokens)
		s.blocksV = blockify(s.values, blockTokens)
		// Oracle: each token alone over its t+1-row prefix as one block.
		for tok := 0; tok < n; tok++ {
			sub := Mat{Rows: tok + 1, Cols: kvDim, Data: s.keys.Data[:(tok+1)*kvDim]}
			subV := Mat{Rows: tok + 1, Cols: kvDim, Data: s.values.Data[:(tok+1)*kvDim]}
			attendOneBlock(s.want.Row(tok), s.queries.Row(tok), sub, subV, nq, nkv, headDim)
		}
	}

	// One whole-sequence item each, all fanned as a single task set.
	var items []CausalItem
	for i := range seqs {
		s := &seqs[i]
		items = append(items, CausalItem{
			Out: s.out, Queries: s.queries,
			KeyBlocks: s.blocksK, ValueBlocks: s.blocksV,
		})
	}
	AttendCausalMany(items, nq, nkv, headDim)
	for i := range seqs {
		for j, v := range seqs[i].out.Data {
			if v != seqs[i].want.Data[j] {
				t.Fatalf("seq %d elem %d: packed %g != sequential %g", i, j, v, seqs[i].want.Data[j])
			}
		}
	}

	// Split every sequence's queries at an uneven boundary (chunked
	// packing): StartPos scopes the second half to the same prefixes.
	items = items[:0]
	for i := range seqs {
		s := &seqs[i]
		for j := range s.out.Data {
			s.out.Data[j] = 0
		}
		n := s.queries.Rows
		cut := n / 2
		if cut > 0 {
			items = append(items, CausalItem{
				Out:       Mat{Rows: cut, Cols: qDim, Data: s.out.Data[:cut*qDim]},
				Queries:   Mat{Rows: cut, Cols: qDim, Data: s.queries.Data[:cut*qDim]},
				KeyBlocks: s.blocksK, ValueBlocks: s.blocksV,
			})
		}
		items = append(items, CausalItem{
			Out:       Mat{Rows: n - cut, Cols: qDim, Data: s.out.Data[cut*qDim:]},
			Queries:   Mat{Rows: n - cut, Cols: qDim, Data: s.queries.Data[cut*qDim:]},
			KeyBlocks: s.blocksK, ValueBlocks: s.blocksV,
			StartPos: cut,
		})
	}
	AttendCausalMany(items, nq, nkv, headDim)
	for i := range seqs {
		for j, v := range seqs[i].out.Data {
			if v != seqs[i].want.Data[j] {
				t.Fatalf("chunked seq %d elem %d: packed %g != sequential %g", i, j, v, seqs[i].want.Data[j])
			}
		}
	}
}

// TestAttendCausalManyQuantMatchesPerToken: the quantized arm of the
// packed fan-out must be bit-identical to attending each token alone
// over the same quantized prefixes.
func TestAttendCausalManyQuantMatchesPerToken(t *testing.T) {
	const nq, nkv, headDim, blockTokens = 4, 2, 8, 4
	qDim := nq * headDim
	rng := rand.New(rand.NewSource(23))
	lens := []int{2, 7, 11}

	var items []CausalItem
	wants := make([]Mat, len(lens))
	outs := make([]Mat, len(lens))
	for i, n := range lens {
		qk, qv, _, _, _, _ := quantAttnFixture(rng, n, blockTokens, nkv, headDim)
		queries := NewMat(n, qDim)
		for j := range queries.Data {
			queries.Data[j] = rng.Float32()*2 - 1
		}
		outs[i] = NewMat(n, qDim)
		wants[i] = NewMat(n, qDim)
		var kp, vp []QBlock
		for tok := 0; tok < n; tok++ {
			kp = QBlocksPrefix(kp[:0], qk, tok+1)
			vp = QBlocksPrefix(vp[:0], qv, tok+1)
			attend(wants[i].Row(tok), queries.Row(tok), kvBlocks{q: kp}, kvBlocks{q: vp}, nq, nkv, headDim, nil, nil)
		}
		items = append(items, CausalItem{
			Out: outs[i], Queries: queries,
			KeyQBlocks: qk, ValueQBlocks: qv,
		})
	}
	AttendCausalMany(items, nq, nkv, headDim)
	for i := range outs {
		for j, v := range outs[i].Data {
			if v != wants[i].Data[j] {
				t.Fatalf("seq %d elem %d: packed quant %g != sequential %g", i, j, v, wants[i].Data[j])
			}
		}
	}
}

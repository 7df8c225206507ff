package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// quantizeMat round-trips a matrix through the codec, returning the
// packed representation and the dequantized copy.
func quantizeMat(m Mat, group int) (codes, scales []float32, deq Mat) {
	pc := PackedCols(m.Cols)
	g := QGroups(m.Cols, group)
	codes = make([]float32, m.Rows*pc)
	scales = make([]float32, m.Rows*g)
	deq = NewMat(m.Rows, m.Cols)
	for t := 0; t < m.Rows; t++ {
		QuantizeRow(codes[t*pc:(t+1)*pc], scales[t*g:(t+1)*g], m.Row(t), group)
		DequantizeRow(deq.Row(t), codes[t*pc:(t+1)*pc], scales[t*g:(t+1)*g], m.Cols, group)
	}
	return codes, scales, deq
}

// TestQuantizeRoundTripBounds: the int8 group codec's reconstruction
// error is bounded by half a quantization step per value — scale/2 =
// maxAbs(group)/254 — and zero rows reconstruct exactly.
func TestQuantizeRoundTripBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cols := range []int{1, 3, 16, 32, 33, 64, 100} {
		for _, group := range []int{4, 32} {
			src := make([]float32, cols)
			for i := range src {
				src[i] = (rng.Float32() - 0.5) * float32(math.Pow(10, float64(rng.Intn(5)-2)))
			}
			codes := make([]float32, PackedCols(cols))
			scales := make([]float32, QGroups(cols, group))
			QuantizeRow(codes, scales, src, group)
			got := make([]float32, cols)
			DequantizeRow(got, codes, scales, cols, group)
			for i := range src {
				g := i / group
				lo := g * group
				hi := lo + group
				if hi > cols {
					hi = cols
				}
				var maxAbs float64
				for _, v := range src[lo:hi] {
					maxAbs = math.Max(maxAbs, math.Abs(float64(v)))
				}
				bound := maxAbs/254 + 1e-12
				if err := math.Abs(float64(got[i] - src[i])); err > bound {
					t.Fatalf("cols=%d group=%d col %d: |%g - %g| = %g > %g",
						cols, group, i, got[i], src[i], err, bound)
				}
			}

			// A zero row must reconstruct exactly (scale 0, codes 0).
			zero := make([]float32, cols)
			QuantizeRow(codes, scales, zero, group)
			DequantizeRow(got, codes, scales, cols, group)
			for i, v := range got {
				if v != 0 {
					t.Fatalf("zero row col %d dequantized to %g", i, v)
				}
			}
		}
	}
}

// TestDequantizeRowSliceMatchesFull: slicing out any [lo, hi) window
// of a row must agree with the full dequantization — this is what the
// attention kernel relies on to dequantize one head at a time.
func TestDequantizeRowSliceMatchesFull(t *testing.T) {
	const cols, group = 48, 32
	rng := rand.New(rand.NewSource(8))
	src := make([]float32, cols)
	for i := range src {
		src[i] = rng.Float32()*4 - 2
	}
	codes := make([]float32, PackedCols(cols))
	scales := make([]float32, QGroups(cols, group))
	QuantizeRow(codes, scales, src, group)
	full := make([]float32, cols)
	DequantizeRow(full, codes, scales, cols, group)
	buf := make([]float32, cols)
	for lo := 0; lo < cols; lo += 5 {
		for hi := lo + 1; hi <= cols; hi += 7 {
			DequantizeRowSlice(buf, codes, scales, lo, hi, group)
			for i := lo; i < hi; i++ {
				if buf[i-lo] != full[i] {
					t.Fatalf("slice [%d,%d) col %d: %g != %g", lo, hi, i, buf[i-lo], full[i])
				}
			}
		}
	}
}

// quantAttnFixture builds a paged GQA problem in both representations:
// quantized blocks and their exactly-dequantized float32 mirrors.
func quantAttnFixture(rng *rand.Rand, ctx, blockTokens, nkv, headDim int) (qk, qv []QBlock, fk, fv []Mat, keys, values Mat) {
	kvDim := nkv * headDim
	keys = NewMat(ctx, kvDim)
	values = NewMat(ctx, kvDim)
	for i := range keys.Data {
		keys.Data[i] = rng.Float32()*2 - 1
		values.Data[i] = rng.Float32()*2 - 1
	}
	for lo := 0; lo < ctx; lo += blockTokens {
		hi := lo + blockTokens
		if hi > ctx {
			hi = ctx
		}
		rows := hi - lo
		kb := Mat{Rows: rows, Cols: kvDim, Data: keys.Data[lo*kvDim : hi*kvDim]}
		vb := Mat{Rows: rows, Cols: kvDim, Data: values.Data[lo*kvDim : hi*kvDim]}
		kc, ks, kdq := quantizeMat(kb, QGroupSize)
		vc, vs, vdq := quantizeMat(vb, QGroupSize)
		qk = append(qk, QBlock{Rows: rows, Cols: kvDim, Group: QGroupSize, Codes: kc, Scales: ks})
		qv = append(qv, QBlock{Rows: rows, Cols: kvDim, Group: QGroupSize, Codes: vc, Scales: vs})
		fk = append(fk, kdq)
		fv = append(fv, vdq)
	}
	return qk, qv, fk, fv, keys, values
}

// TestAttendOneBlocksQMatchesDequantized: attention served straight
// from quantized blocks must be bit-identical to AttendOneBlocks over
// the pre-dequantized context (same score chains, same softmax, same
// combine order) — the on-the-fly dequant introduces no extra error.
// Against the original float32 context it must agree within the
// codec's quantization tolerance.
func TestAttendOneBlocksQMatchesDequantized(t *testing.T) {
	const nq, nkv, headDim, blockTokens = 8, 2, 16, 16
	rng := rand.New(rand.NewSource(9))
	for _, ctx := range []int{1, 5, 16, 33, 80} {
		qk, qv, fk, fv, keys, values := quantAttnFixture(rng, ctx, blockTokens, nkv, headDim)
		q := make([]float32, nq*headDim)
		for i := range q {
			q[i] = rng.Float32()*2 - 1
		}
		gotQ := make([]float32, nq*headDim)
		AttendOneBlocksQ(gotQ, q, qk, qv, nq, nkv, headDim, nil, nil)

		wantDeq := make([]float32, nq*headDim)
		AttendOneBlocks(wantDeq, q, fk, fv, nq, nkv, headDim, nil)
		for i := range gotQ {
			if gotQ[i] != wantDeq[i] {
				t.Fatalf("ctx=%d out[%d]: quantized path %g != dequantized path %g",
					ctx, i, gotQ[i], wantDeq[i])
			}
		}

		wantF32 := make([]float32, nq*headDim)
		AttendOne(wantF32, q, keys, values, nq, nkv, headDim, nil)
		for i := range gotQ {
			if err := math.Abs(float64(gotQ[i] - wantF32[i])); err > 0.02 {
				t.Fatalf("ctx=%d out[%d]: quantized %g vs float32 %g (err %g)",
					ctx, i, gotQ[i], wantF32[i], err)
			}
		}
	}
}

// TestAttendManyQuantizedDispatch: AttnItem dispatches to the
// quantized kernel when QBlocks are set, and the batch fan-out stays
// bit-identical to solving each item alone.
func TestAttendManyQuantizedDispatch(t *testing.T) {
	const nq, nkv, headDim, blockTokens = 4, 2, 8, 4
	rng := rand.New(rand.NewSource(10))
	items := make([]AttnItem, 6)
	want := make([][]float32, len(items))
	for i := range items {
		ctx := 1 + rng.Intn(20)
		qk, qv, _, _, _, _ := quantAttnFixture(rng, ctx, blockTokens, nkv, headDim)
		q := make([]float32, nq*headDim)
		for j := range q {
			q[j] = rng.Float32() - 0.5
		}
		items[i] = AttnItem{
			Out: make([]float32, nq*headDim), Q: q,
			KeyQBlocks: qk, ValueQBlocks: qv,
		}
		want[i] = make([]float32, nq*headDim)
		AttendOneBlocksQ(want[i], q, qk, qv, nq, nkv, headDim, nil, nil)
	}
	AttendMany(items, nq, nkv, headDim)
	for i := range items {
		for j := range items[i].Out {
			if items[i].Out[j] != want[i][j] {
				t.Fatalf("item %d out[%d]: %g != %g", i, j, items[i].Out[j], want[i][j])
			}
		}
	}
}

// TestQuantizeSubnormalGroups: a group of tiny nonzero values must not
// overflow the inverse scale (127/maxAbs exceeds float32 range below
// ~3.7e-37) — codes keep their sign and magnitude order.
func TestQuantizeSubnormalGroups(t *testing.T) {
	src := []float32{1e-40, -1e-40, 5e-41, -5e-41}
	codes := make([]float32, PackedCols(len(src)))
	scales := make([]float32, QGroups(len(src), QGroupSize))
	QuantizeRow(codes, scales, src, QGroupSize)
	got := make([]float32, len(src))
	DequantizeRow(got, codes, scales, len(src), QGroupSize)
	for i, v := range src {
		if (v > 0) != (got[i] > 0) || got[i] == 0 {
			t.Fatalf("col %d: %g dequantized to %g (sign lost)", i, v, got[i])
		}
		if math.Abs(float64(got[i]-v)) > 1e-40/64 {
			t.Fatalf("col %d: %g dequantized to %g", i, v, got[i])
		}
	}

	// Below ~127x the smallest subnormal the scale itself underflows
	// float32: the group is stored as exact zeros (not ±127 codes that
	// would decode against a zero scale).
	tiny := []float32{1e-44, -1e-44, 1e-44, -1e-44}
	QuantizeRow(codes, scales, tiny, QGroupSize)
	if scales[0] != 0 {
		t.Fatalf("underflowing group kept scale %g", scales[0])
	}
	DequantizeRow(got, codes, scales, len(tiny), QGroupSize)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("underflowing group col %d dequantized to %g", i, v)
		}
	}
}

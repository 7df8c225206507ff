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
// from quantized blocks must be bit-identical to float32 blocks holding
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
		attend(gotQ, q, kvBlocks{q: qk}, kvBlocks{q: qv}, nq, nkv, headDim, nil, nil)

		wantDeq := make([]float32, nq*headDim)
		attend(wantDeq, q, kvBlocks{f: fk}, kvBlocks{f: fv}, nq, nkv, headDim, nil, nil)
		for i := range gotQ {
			if gotQ[i] != wantDeq[i] {
				t.Fatalf("ctx=%d out[%d]: quantized path %g != dequantized path %g",
					ctx, i, gotQ[i], wantDeq[i])
			}
		}

		wantF32 := make([]float32, nq*headDim)
		attendOneBlock(wantF32, q, keys, values, nq, nkv, headDim)
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
		attend(want[i], q, kvBlocks{q: qk}, kvBlocks{q: qv}, nq, nkv, headDim, nil, nil)
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

// codecSalt are the scales and values where the codec's lanes could part
// from its Go loops: signed zeros, subnormals, the largest finite value,
// infinities and NaN.
var codecSalt = []float32{
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// TestDequantVectorMatchesGo is the decode lanes' contract as a
// property: with the vector kernels on and off, QBlock.dequantizeRows
// writes the same bits and nothing past its n*w values — for head dims
// 8, 16, 24, 64 and 128 at every start column that is a multiple of
// eight (so slices start mid-group and cross group boundaries), groups
// of 8, 16 and 32, rows with a partly used last code word, every code
// -128..127 (the lanes read bytes QuantizeRow never writes too) and
// scales salted with zeros, subnormals, infinities and NaN.
func TestDequantVectorMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels (host without AVX2, or a -race build): the Go loops are the only ones here")
	}
	was := SetVectorTile(true)
	defer SetVectorTile(was)
	rng := rand.New(rand.NewSource(53))
	for _, headDim := range []int{8, 16, 24, 64, 128} {
		for _, group := range []int{8, 16, 32} {
			for trial := 0; trial < 6; trial++ {
				rows := 1 + rng.Intn(19)
				cols := (1+rng.Intn(3))*headDim + rng.Intn(8)
				b := QBlock{Rows: rows, Cols: cols, Group: group}
				b.Codes = make([]float32, rows*PackedCols(cols))
				b.Scales = make([]float32, rows*QGroups(cols, group))
				start := rng.Intn(256)
				for i := range b.Codes {
					// Consecutive bytes count up from start: every code shows
					// up once a block holds 256 of them.
					c := uint32(start + 4*i)
					b.Codes[i] = math.Float32frombits(uint32(uint8(c)) | uint32(uint8(c+1))<<8 | uint32(uint8(c+2))<<16 | uint32(uint8(c+3))<<24)
				}
				for i := range b.Scales {
					b.Scales[i] = (rng.Float32() + 0.01) * float32(math.Pow(10, float64(rng.Intn(9)-4)))
					if rng.Intn(6) == 0 {
						b.Scales[i] = codecSalt[rng.Intn(len(codecSalt))]
					}
				}
				for lo := 0; lo+headDim <= cols; lo += 8 {
					tt := rng.Intn(rows)
					n := 1 + rng.Intn(rows-tt)
					got, want := make([]float32, n*headDim+8), make([]float32, n*headDim+8)
					for i := range got {
						got[i], want[i] = -1, -1
					}
					b.dequantizeRows(got, tt, n, lo, headDim)
					SetVectorTile(false)
					b.dequantizeRows(want, tt, n, lo, headDim)
					SetVectorTile(true)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							r, c := i/headDim, lo+i%headDim
							t.Fatalf("head dim %d, group %d, cols %d, rows [%d, %d), columns [%d, %d): dst[%d] (row %d col %d, code %d, scale %g) = %#08x on the lanes, %#08x on Go",
								headDim, group, cols, tt, tt+n, lo, lo+headDim, i, tt+r, c,
								qcode(b.RowCodes(min(tt+r, rows-1)), min(c, cols-1)), b.RowScales(min(tt+r, rows-1))[min(c, cols-1)/group],
								math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestQuantizeVectorMatchesGo is the encode lanes' contract as a
// property: with the vector kernels on and off, QuantizeRow writes the
// same code words and scales, whatever the words held before — for rows
// of 1 to 100 values and whole head rows up to 1024 (so the last word is
// often partly used, and the last group short), groups of 4 (Go only), 8,
// 16, 32 and 40, and groups drawn from:
//   - random values over nine decades;
//   - exact rounding ties: maxAbs 127·2^e makes the inverse scale 2^-e
//     exactly, so values (k + 1/2)·2^e land on x·inv = k + 1/2 for every
//     k in -127..126, each beside its float32 neighbours;
//   - values chosen as float32((k + 1/2)/inv) for a random maxAbs;
//   - all zeros, subnormal scales, scales that underflow to 0, and
//     groups holding NaN, an infinity or the largest finite value.
func TestQuantizeVectorMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels (host without AVX2, or a -race build): the Go loops are the only ones here")
	}
	was := SetVectorTile(true)
	defer SetVectorTile(was)
	rng := rand.New(rand.NewSource(54))
	fill := func(g []float32, kind int) {
		switch kind {
		case 0: // random, over nine decades
			for i := range g {
				g[i] = (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(rng.Intn(9)-4)))
			}
		case 1: // exact ties and their neighbours at maxAbs 127·2^e
			e := float32(math.Ldexp(1, rng.Intn(40)-20))
			for i := range g {
				k := float32(rng.Intn(254) - 127)
				v := (k + 0.5) * e
				switch rng.Intn(3) {
				case 1:
					v = math.Nextafter32(v, float32(math.Inf(1)))
				case 2:
					v = math.Nextafter32(v, float32(math.Inf(-1)))
				}
				g[i] = v
			}
			g[rng.Intn(len(g))] = 127 * e * float32(1-2*rng.Intn(2))
		case 2: // near-ties at a random maxAbs
			m := rng.Float32()*100 + 1e-3
			inv := 127 / float64(m)
			for i := range g {
				g[i] = float32((float64(rng.Intn(254)-127) + 0.5) / inv)
			}
			g[rng.Intn(len(g))] = m
		case 3: // all zeros, signed
			for i := range g {
				g[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
			}
		case 4: // a subnormal scale (maxAbs ~1e-40), or one that underflows (~1e-44)
			m := float32(1e-40)
			if rng.Intn(2) == 0 {
				m = 1e-44
			}
			for i := range g {
				g[i] = (rng.Float32()*2 - 1) * m
			}
		default: // random with salt: NaN, infinities, the largest finite value
			for i := range g {
				g[i] = rng.Float32()*2 - 1
			}
			for j := 0; j < 1+rng.Intn(2); j++ {
				g[rng.Intn(len(g))] = codecSalt[rng.Intn(len(codecSalt))]
			}
		}
	}
	lengths := []int{64, 128, 256, 512, 1024}
	for n := 1; n <= 100; n++ {
		lengths = append(lengths, n)
	}
	for _, group := range []int{4, 8, 16, 32, 40} {
		for _, n := range lengths {
			for trial := 0; trial < 8; trial++ {
				src := make([]float32, n)
				for lo := 0; lo < n; lo += group {
					fill(src[lo:min(n, lo+group)], rng.Intn(6))
				}
				pc, ng := PackedCols(n), QGroups(n, group)
				// Each side starts from its own garbage.
				got, want := make([]float32, pc), make([]float32, pc)
				gotS, wantS := make([]float32, ng), make([]float32, ng)
				for _, w := range [][]float32{got, want, gotS, wantS} {
					for i := range w {
						w[i] = math.Float32frombits(rng.Uint32())
					}
				}
				QuantizeRow(got, gotS, src, group)
				SetVectorTile(false)
				QuantizeRow(want, wantS, src, group)
				SetVectorTile(true)
				for g := range wantS {
					if math.Float32bits(gotS[g]) != math.Float32bits(wantS[g]) {
						t.Fatalf("n %d, group %d: scale %d = %g on the lanes, %g on Go (src %v)",
							n, group, g, gotS[g], wantS[g], src[g*group:min(n, (g+1)*group)])
					}
				}
				for i := range want {
					if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
						t.Fatalf("n %d, group %d: code word %d = %#08x on the lanes, %#08x on Go (src %v, scale %g)",
							n, group, i, g, w, src[4*i:min(n, 4*i+4)], wantS[4*i/group])
					}
				}
			}
		}
	}
}

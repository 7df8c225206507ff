package tensor

import "math"

// Int8 group-quantized row codec (§3.3: quantizing offloaded KV raises
// CPU attention's arithmetic intensity and multiplies effective cache
// capacity). A row of Cols float32 values is stored as one int8 code
// per value plus one float32 scale per group of QGroupSize consecutive
// values: code = round(v/scale) clamped to [-127, 127], scale =
// maxAbs(group)/127. Codes are packed four per float32 word (the
// arenas are float32-typed, standing in for raw device bytes), so a
// quantized row costs ceil(Cols/4) + ceil(Cols/Group) floats instead
// of Cols — 9/32 of float32 when Cols is a multiple of the group size.
//
// Packing writes arbitrary bit patterns through math.Float32frombits
// and reads them back with math.Float32bits; the words are only ever
// moved (copy/memmove) or inspected bitwise, never used arithmetically,
// so NaN patterns survive intact.

// QGroupSize is the default quantization group: 32 values per scale,
// the layout every cache block uses.
const QGroupSize = 32

// PackedCols returns the float32 words needed to hold cols int8 codes.
func PackedCols(cols int) int { return (cols + 3) / 4 }

// QGroups returns the scale count for cols values at the given group
// size.
func QGroups(cols, group int) int { return (cols + group - 1) / group }

// QuantizeRow encodes src into codes (PackedCols(len(src)) words,
// overwritten) and scales (QGroups(len(src), group) floats). An
// all-zero group gets scale 0 and zero codes, so dequantization is
// exact for it.
func QuantizeRow(codes, scales, src []float32, group int) {
	n := len(src)
	pc := PackedCols(n)
	for i := 0; i < pc; i++ {
		codes[i] = 0
	}
	for g := 0; g*group < n; g++ {
		lo := g * group
		hi := lo + group
		if hi > n {
			hi = n
		}
		var maxAbs float32
		for _, v := range src[lo:hi] {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			scales[g] = 0
			continue
		}
		scales[g] = maxAbs / 127
		if scales[g] == 0 {
			// maxAbs below 127x the smallest subnormal: the scale itself
			// underflows float32, so nonzero codes would dequantize to 0
			// anyway. Store the group as all-zero (error <= maxAbs, far
			// below any representable scale step).
			continue
		}
		// The code is computed in float64: 127/maxAbs overflows float32
		// to +Inf for subnormal-scale groups, and int32(Round(±Inf)) is
		// implementation-defined — float64 keeps the codes well-defined
		// and platform-deterministic for any nonzero maxAbs.
		inv := 127 / float64(maxAbs)
		for i := lo; i < hi; i++ {
			q := int32(math.Round(float64(src[i]) * inv))
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			w := math.Float32bits(codes[i>>2])
			w |= uint32(uint8(int8(q))) << uint((i&3)*8)
			codes[i>>2] = math.Float32frombits(w)
		}
	}
}

// qcode extracts code i from a packed word slice.
func qcode(codes []float32, i int) int8 {
	return int8(uint8(math.Float32bits(codes[i>>2]) >> uint((i&3)*8)))
}

// DequantizeRowSlice decodes columns [lo, hi) of one quantized row into
// dst[0:hi-lo]: dst[i-lo] = code(i) * scale(i/group).
func DequantizeRowSlice(dst, codes, scales []float32, lo, hi, group int) {
	for i := lo; i < hi; i++ {
		dst[i-lo] = float32(qcode(codes, i)) * scales[i/group]
	}
}

// DequantizeRow decodes a whole row of cols values into dst.
func DequantizeRow(dst, codes, scales []float32, cols, group int) {
	DequantizeRowSlice(dst, codes, scales, 0, cols, group)
}

// QBlock is one cache block's quantized K (or V) half: Rows tokens of
// Cols values each, codes packed four per float32 word and one scale
// per Group values. Codes is Rows*PackedCols(Cols) words row-major;
// Scales is Rows*QGroups(Cols, Group) floats row-major.
type QBlock struct {
	Rows, Cols, Group int
	Codes, Scales     []float32
}

// RowCodes returns token t's packed code words.
func (b QBlock) RowCodes(t int) []float32 {
	pc := PackedCols(b.Cols)
	return b.Codes[t*pc : (t+1)*pc]
}

// RowScales returns token t's group scales.
func (b QBlock) RowScales(t int) []float32 {
	g := QGroups(b.Cols, b.Group)
	return b.Scales[t*g : (t+1)*g]
}

// QBlocksRows returns the total token count of a quantized block list.
func QBlocksRows(blocks []QBlock) int {
	n := 0
	for _, b := range blocks {
		n += b.Rows
	}
	return n
}

// QBlocksPrefix appends views of the first n rows of a quantized block
// list to dst (the last view possibly partial) — how causal attention
// scopes token t to its t+1-row prefix without copying.
func QBlocksPrefix(dst, blocks []QBlock, n int) []QBlock {
	for _, b := range blocks {
		if n <= 0 {
			break
		}
		rows := b.Rows
		if rows > n {
			rows = n
		}
		dst = append(dst, QBlock{
			Rows: rows, Cols: b.Cols, Group: b.Group,
			Codes:  b.Codes[:rows*PackedCols(b.Cols)],
			Scales: b.Scales[:rows*QGroups(b.Cols, b.Group)],
		})
		n -= rows
	}
	return dst
}

// AttendOneBlocksQ is AttendOneBlocks over a quantized paged context:
// keys[b]/values[b] are the b-th block's int8 halves. The kv heads
// drive the outer loop: each K (and V) row's head slice dequantizes
// into rowBuf exactly once and serves all nq/nkv query heads sharing
// that kv head — the GQA group factor of redundant dequant work the
// query-head-outer order would do — and the float32 context is never
// materialized. scores is scratch of length >= (nq/nkv)*ctx (one lane
// per query head of a group; allocated when nil), rowBuf of length >=
// headDim. Each score is still its own single ascending accumulation
// chain and each output head its own t-ascending weighted sum, so
// given identical dequantized values the output is bit-identical to
// AttendOneBlocks: same per-score chains, one softmax per head over
// the whole context, same k-ascending combine.
func AttendOneBlocksQ(out, q []float32, keys, values []QBlock, nq, nkv, headDim int, scores, rowBuf []float32) {
	ctx := QBlocksRows(keys)
	group := nq / nkv
	if scores == nil || len(scores) < group*ctx {
		scores = make([]float32, group*ctx)
	}
	if len(rowBuf) < headDim {
		rowBuf = make([]float32, headDim)
	}
	scale := float32(1 / math.Sqrt(float64(headDim)))
	for kvh := 0; kvh < nkv; kvh++ {
		lo, hi := kvh*headDim, (kvh+1)*headDim
		base := 0
		for _, kb := range keys {
			for t := 0; t < kb.Rows; t++ {
				DequantizeRowSlice(rowBuf, kb.RowCodes(t), kb.RowScales(t), lo, hi, kb.Group)
				for g := 0; g < group; g++ {
					qh := q[(kvh*group+g)*headDim : (kvh*group+g+1)*headDim]
					scores[g*ctx+base+t] = Dot(qh, rowBuf[:headDim]) * scale
				}
			}
			base += kb.Rows
		}
		for g := 0; g < group; g++ {
			Softmax(scores[g*ctx : g*ctx+ctx])
			oh := out[(kvh*group+g)*headDim : (kvh*group+g+1)*headDim]
			for i := range oh {
				oh[i] = 0
			}
		}
		base = 0
		for _, vb := range values {
			for t := 0; t < vb.Rows; t++ {
				DequantizeRowSlice(rowBuf, vb.RowCodes(t), vb.RowScales(t), lo, hi, vb.Group)
				for g := 0; g < group; g++ {
					oh := out[(kvh*group+g)*headDim : (kvh*group+g+1)*headDim]
					Axpy(scores[g*ctx+base+t], rowBuf[:headDim], oh)
				}
			}
			base += vb.Rows
		}
	}
}

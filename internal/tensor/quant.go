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
//
// The Go loops here are the codec's definition and its only kernels off
// amd64 and under -race. Where the host has AVX2, quant_amd64.s runs
// both halves in lanes with the same bits: QuantizeRow's whole groups of
// a multiple of eight values (a group holding a NaN or an infinity, or
// whose scale is 0, goes to the Go loop), and the decode of attention's
// int8 chunks (QBlock.dequantizeRows) where a head slice is whole words
// of eight codes. A decoded value is float32(code) * scale, one rounding
// on either; a code is round half away from zero of a float64 product,
// which the lanes emulate exactly.

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
	codes, scales = codes[:PackedCols(n)], scales[:QGroups(n, group)] // the kernel trusts these lengths
	clear(codes)
	whole := 0 // leading groups the lanes may take
	if useAVX2 && group%8 == 0 {
		whole = n / group
	}
	for g := 0; g*group < n; g++ {
		if g < whole {
			// The lanes stop at the first group they leave to Go.
			if g += quantizeAVX2(&codes[g*group/4], &scales[g], &src[g*group], whole-g, group); g*group >= n {
				break
			}
		}
		quantizeGroup(codes, &scales[g], src, g*group, min(n, (g+1)*group))
	}
}

// quantizeGroup is the codec's definition for one group: values [lo,
// hi) of src into their codes (zeroed beforehand) and the group's scale.
func quantizeGroup(codes []float32, scale *float32, src []float32, lo, hi int) {
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
		*scale = 0
		return
	}
	*scale = maxAbs / 127
	if *scale == 0 {
		// maxAbs below 127x the smallest subnormal: the scale itself
		// underflows float32, so nonzero codes would dequantize to 0
		// anyway. Store the group as all-zero (error <= maxAbs, far
		// below any representable scale step).
		return
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

// qcode extracts code i from a packed word slice.
func qcode(codes []float32, i int) int8 {
	return int8(uint8(math.Float32bits(codes[i>>2]) >> uint((i&3)*8)))
}

// DequantizeRowSlice decodes columns [lo, hi) of one quantized row into
// dst[0:hi-lo]: dst[i-lo] = code(i) * scale(i/group).
func DequantizeRowSlice(dst, codes, scales []float32, lo, hi, group int) {
	for i := lo; i < hi; {
		g := i / group
		s, end := scales[g], min(hi, (g+1)*group)
		for ; i < end; i++ {
			dst[i-lo] = float32(qcode(codes, i)) * s
		}
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

// dequantizeRows decodes columns [lo, lo+w) of rows [t, t+n) into dst,
// row r at dst[r*w:], n >= 1: DequantizeRowSlice row by row, or on the
// AVX2 lanes where the slice is whole words of eight codes, one kernel
// call per scale group it touches, each over all n rows.
func (b QBlock) dequantizeRows(dst []float32, t, n, lo, w int) {
	if !useAVX2 || lo%8 != 0 || w%8 != 0 || b.Group%8 != 0 {
		for r := 0; r < n; r++ {
			DequantizeRowSlice(dst[r*w:], b.RowCodes(t+r), b.RowScales(t+r), lo, lo+w, b.Group)
		}
		return
	}
	pc, ng := PackedCols(b.Cols), QGroups(b.Cols, b.Group)
	// The kernel trusts these bounds.
	_, _, _ = dst[n*w-1], b.Codes[(t+n-1)*pc+(lo+w-1)/4], b.Scales[(t+n-1)*ng+(lo+w-1)/b.Group]
	for i := lo; i < lo+w; {
		g := i / b.Group
		end := min(lo+w, (g+1)*b.Group)
		dequantAVX2(&dst[i-lo], w, &b.Codes[t*pc+i/4], pc, &b.Scales[t*ng+g], ng, n, end-i)
		i = end
	}
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

//go:build !race

package tensor

import "math"

// useAVX2 selects the vector kernels: the GEMM tile in matMulTBlock,
// the column-lane GEMM in matMulPBlock, attention's score, scaling and
// combine kernels, exp32's lanes in Softmax and SiLUMul, and the int8
// codec's lanes (QuantizeRow, and the decode of attention's int8
// chunks). It is set once from CPUID; only tests assign it afterwards,
// to run both kernel sets on one host.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func gemmPanel8AVX2(dst *float32, ldd, rows int, panel *float32, k int, b *float32, ldb, nblk int)

// axpyRowsAVX2 sets o[r*ldo+i] += p[r*ldp+t] * v[t*ldv+i] for rows r
// < rows (1 to 4), i < dim (a multiple of 8) and t < n ascending: the
// panel GEMM's kernel and attention's combine.
//
//go:noescape
func axpyRowsAVX2(o *float32, ldo, rows int, p *float32, ldp int, v *float32, ldv, n, dim int)

// The exp kernels (exp_amd64.s) take n elements, a positive multiple of
// eight, and compute exp32 eight lanes at a time.

// maxAVX2 returns m replaced by any strictly greater x[i].
//
//go:noescape
func maxAVX2(x *float32, n int, m float32) float32

// expSubAVX2 sets x[i] = exp32(x[i] - m) and adds float64(x[i]) to
// part[i%8], in ascending i.
//
//go:noescape
func expSubAVX2(x *float32, n int, m float32, part *[8]float64)

// scaleAVX2 sets x[i] *= s.
//
//go:noescape
func scaleAVX2(x *float32, n int, s float32)

// siluMulAVX2 sets dst[i] = gate[i] / (1 + exp32(-gate[i])) * up[i].
//
//go:noescape
func siluMulAVX2(dst, gate, up *float32, n int)

// The int8 codec's kernels (quant_amd64.s).

// dequantAVX2 sets dst[r*ldd+i] = float32(code i of row r) * scales[r*lds]
// for r < n and i < w, a multiple of eight inside one scale group; row
// r's codes are the bytes of codes[r*ldc:].
//
//go:noescape
func dequantAVX2(dst *float32, ldd int, codes *float32, ldc int, scales *float32, lds, n, w int)

// quantizeAVX2 quantizes up to groups whole groups of group values (a
// multiple of eight) of src into codes and scales as QuantizeRow's Go
// loop does, and returns how many it did: it stops at a group whose
// scale would be 0 or that holds a NaN or an infinity.
//
//go:noescape
func quantizeAVX2(codes, scales, src *float32, groups, group int) int

// expLanes is exp32's constants with each row repeated across eight
// lanes, for the exp kernels' memory operands: exp_amd64.s reads row i
// at byte offset 32*i, so the order here is part of the kernels.
var expLanes = func() (t [13][8]float32) {
	signBit := math.Float32frombits(1 << 31) // -0: XOR with it negates
	for i, c := range [...]float32{expLo, expHi, log2e, ln2Hi, ln2Lo,
		expP0, expP1, expP2, expP3, expP4, expP5, 1, signBit} {
		for j := range t[i] {
			t[i][j] = c
		}
	}
	return t
}()

// matMulTVec computes as much of the dst block rows [lo, hi) x cols
// [jlo, jhi) as the AVX2 tile covers — whole blocks of eight columns —
// and returns the first column left for the Go tile (jlo when there is
// no AVX2, or when k is past the panel scratch). Lanes run across output
// rows: each 8-row stripe of a is transposed once into a k-major [k][8]
// panel on the stack, so an output element is still one accumulator
// walking k upward with a separately rounded multiply and add, exactly
// as in the Go tile. A stripe short of eight rows leaves its spare lanes
// as they are (zeros, or an earlier stripe's rows); the kernel computes
// them and stores only live rows.
func matMulTVec(dst, a, bT Mat, lo, hi, jlo, jhi int) int {
	k, nblk := a.Cols, (jhi-jlo)/8
	if !useAVX2 || nblk == 0 || k == 0 || k > panelK {
		return jlo
	}
	var panel [panelK * 8]float32
	for i := lo; i < hi; i += 8 {
		rows := min(8, hi-i)
		for r := 0; r < rows; r++ {
			lane := panel[r:]
			for kk, v := range a.Row(i + r) {
				lane[kk*8] = v
			}
		}
		gemmPanel8AVX2(&dst.Data[i*dst.Cols+jlo], dst.Cols, rows, &panel[0], k, &bT.Data[jlo*k], k, nblk)
	}
	return jlo + nblk*8
}

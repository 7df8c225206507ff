//go:build !amd64 || race

package tensor

// useAVX2 is always false off amd64, and under the race detector: it
// cannot see what assembly reads and writes, so a -race build runs the
// Go kernels and every GEMM and attention access stays visible to it
// (and every kernel is slowed alike, which the calibration test's
// timings rely on). The Go tile in matMulTBlock, Axpy over panels in
// matMulPBlock, attention's Go score, scaling and combine loops, exp32
// and the int8 codec's Go loops are then the only kernels.
var useAVX2 = false

func matMulTVec(dst, a, bT Mat, lo, hi, jlo, jhi int) int { return jlo }

// The vector kernels' stubs: the panel GEMM, attention, Softmax,
// SiLUMul and the int8 codec call them only when useAVX2.
func gemmPanel8AVX2(dst *float32, ldd, rows int, panel *float32, k int, b *float32, ldb, nblk int) {
	panic("tensor: no AVX2 kernels in this build")
}

func axpyRowsAVX2(o *float32, ldo, rows int, p *float32, ldp int, v *float32, ldv, n, dim int) {
	panic("tensor: no AVX2 kernels in this build")
}

func maxAVX2(x *float32, n int, m float32) float32 { panic("tensor: no AVX2 kernels in this build") }

func expSubAVX2(x *float32, n int, m float32, part *[8]float64) {
	panic("tensor: no AVX2 kernels in this build")
}

func scaleAVX2(x *float32, n int, s float32) { panic("tensor: no AVX2 kernels in this build") }

func siluMulAVX2(dst, gate, up *float32, n int) { panic("tensor: no AVX2 kernels in this build") }

func dequantAVX2(dst *float32, ldd int, codes *float32, ldc int, scales *float32, lds, n, w int) {
	panic("tensor: no AVX2 kernels in this build")
}

func quantizeAVX2(codes, scales, src *float32, groups, group int) int {
	panic("tensor: no AVX2 kernels in this build")
}

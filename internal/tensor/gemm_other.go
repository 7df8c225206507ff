//go:build !amd64 || race

package tensor

// useAVX2 is always false off amd64, and under the race detector: it
// cannot see what assembly reads and writes, so a -race build runs the
// Go tile and every GEMM access stays visible to it (and every kernel
// is slowed alike, which the calibration test's timings rely on). The Go
// tile in matMulTBlock is then the only kernel.
var useAVX2 = false

func matMulTVec(dst, a, bT Mat, lo, hi, jlo, jhi int) int { return jlo }

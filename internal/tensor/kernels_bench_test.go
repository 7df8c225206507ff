package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmark shapes roughly match one Tiny-MoE expert GEMM scaled up to
// where kernel differences are visible: [rows, k] @ [n, k]T.
func benchMats(rows, k, n int) (a, bT, dst Mat) {
	rng := rand.New(rand.NewSource(1))
	a = randMat(rng, rows, k)
	bT = randMat(rng, n, k)
	dst = NewMat(rows, n)
	return a, bT, dst
}

// BenchmarkKernelsMatMulTSeedScalar is the seed one-accumulator loop.
func BenchmarkKernelsMatMulTSeedScalar(b *testing.B) {
	a, bT, dst := benchMats(32, 256, 256)
	b.SetBytes(int64(4 * 32 * 256 * 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulTNaive(dst, a, bT)
	}
}

// BenchmarkKernelsMatMulT is the blocked 4x2 register-tiled kernel.
func BenchmarkKernelsMatMulT(b *testing.B) {
	a, bT, dst := benchMats(32, 256, 256)
	b.SetBytes(int64(4 * 32 * 256 * 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT(dst, a, bT)
	}
}

// BenchmarkKernelsMatMulTParallel adds the worker-pool row fan-out
// (equal to the blocked kernel on a single-core runner).
func BenchmarkKernelsMatMulTParallel(b *testing.B) {
	a, bT, dst := benchMats(32, 256, 256)
	b.SetBytes(int64(4 * 32 * 256 * 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTParallel(dst, a, bT)
	}
}

// BenchmarkKernelsMatMulTRows is one core on the bench model's expert
// up-projection (k 128, 448 columns) at the row counts the engine runs:
// a lone token, a decode micro-batch, a small wave, a prefill chunk.
func BenchmarkKernelsMatMulTRows(b *testing.B) {
	for _, rows := range []int{1, 2, 4, 16, 256} {
		b.Run(fmt.Sprint(rows), func(b *testing.B) {
			a, bT, dst := benchMats(rows, 128, 448)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulT(dst, a, bT)
			}
			b.ReportMetric(2*float64(rows*128*448)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkKernelsSiLUMul(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	gate := make([]float32, 4096)
	up := make([]float32, 4096)
	dst := make([]float32, 4096)
	for i := range gate {
		gate[i] = rng.Float32() - 0.5
		up[i] = rng.Float32() - 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SiLUMul(dst, gate, up)
	}
}

func BenchmarkKernelsTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float32, 64)
	for i := range x {
		x[i] = rng.Float32()
	}
	buf := make([]int, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = TopKInto(buf, x, 8)
	}
}

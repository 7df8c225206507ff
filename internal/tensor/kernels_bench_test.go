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
// layout=rows is MatMulT on the row-major matrix, layout=panels MatMulP
// on the same matrix in panels, the layout the expert FFN runs. With
// b=warm every call reads the same matrix (L2-resident); with b=cold
// calls rotate over 144 of them, one decode step's expert weights
// (31.5 MiB, from L3 as in the engine). Each runs on the vector kernels
// and on Go.
func BenchmarkKernelsMatMulTRows(b *testing.B) {
	const k, n, cold = 128, 448, 144
	var mats []Mat
	var panels []Panels
	for _, rows := range []int{1, 2, 4, 16, 256} {
		for _, warm := range []bool{true, false} {
			for _, layout := range []string{"rows", "panels"} {
				prefix := fmt.Sprintf("rows=%d/b=cold/layout=%s/", rows, layout)
				if warm {
					prefix = fmt.Sprintf("rows=%d/b=warm/layout=%s/", rows, layout)
				}
				vectorRun(b, prefix, func(b *testing.B) {
					if mats == nil {
						rng := rand.New(rand.NewSource(1))
						for range cold {
							mats = append(mats, randMat(rng, n, k))
							panels = append(panels, packPanels(mats[len(mats)-1]))
						}
					}
					a, dst := randMat(rand.New(rand.NewSource(2)), rows, k), NewMat(rows, n)
					step := 0
					if !warm {
						step = 1
					}
					b.ResetTimer()
					for i, m := 0, 0; i < b.N; i, m = i+1, (m+step)%cold {
						if layout == "rows" {
							MatMulT(dst, a, mats[m])
						} else {
							MatMulP(dst, a, panels[m])
						}
					}
					b.ReportMetric(2*float64(rows*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
				})
			}
		}
	}
}

// BenchmarkKernelsAttend is one decode token's attention at the bench
// model's head geometry (8 query heads, 2 KV heads, head dim 16) over a
// paged context of 16-token blocks, float32 and int8, on the vector
// kernels and on Go, at the context lengths of a short decode, a long
// one and a prefill prompt. GB/s counts the K and V bytes read.
func BenchmarkKernelsAttend(b *testing.B) {
	const nq, nkv, headDim, block = 8, 2, 16, 16
	kvDim := nkv * headDim
	for _, int8KV := range []bool{false, true} {
		for _, ctx := range []int{24, 64, 384} {
			prefix := fmt.Sprintf("f32/ctx=%d/", ctx)
			rowBytes := 4 * kvDim
			if int8KV {
				prefix = fmt.Sprintf("int8/ctx=%d/", ctx)
				rowBytes = 4 * (PackedCols(kvDim) + QGroups(kvDim, QGroupSize))
			}
			vectorRun(b, prefix, func(b *testing.B) {
				rng := rand.New(rand.NewSource(4))
				keys, values := randMat(rng, ctx, kvDim), randMat(rng, ctx, kvDim)
				it := AttnItem{
					Q: randMat(rng, 1, nq*headDim).Data, Out: make([]float32, nq*headDim),
					Scores: make([]float32, nq/nkv*ctx), RowScratch: make([]float32, headDim),
				}
				if int8KV {
					it.KeyQBlocks, it.ValueQBlocks = quantBlocks(keys, block), quantBlocks(values, block)
				} else {
					it.KeyBlocks, it.ValueBlocks = blockify(keys, block), blockify(values, block)
				}
				items := []AttnItem{it}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					AttendMany(items, nq, nkv, headDim)
				}
				b.ReportMetric(float64(2*ctx*rowBytes)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
	}
}

// BenchmarkKernelsQuantize is one K or V row's int8 quantization, what
// every KV append runs: the bench model's row of 32 values (two KV heads
// of 16), a 128-wide head and eight of them, on the vector kernels and on
// Go. GB/s counts the float32 bytes read.
func BenchmarkKernelsQuantize(b *testing.B) {
	for _, cols := range []int{32, 128, 1024} {
		src := randMat(rand.New(rand.NewSource(6)), 1, cols).Data
		codes, scales := make([]float32, PackedCols(cols)), make([]float32, QGroups(cols, QGroupSize))
		vectorRun(b, fmt.Sprintf("cols=%d/", cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				QuantizeRow(codes, scales, src, QGroupSize)
			}
			b.ReportMetric(float64(4*cols)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}

// vectorRun runs f as one sub-benchmark per kernel set, the vector
// kernels on (skipped where the build has none) and off.
func vectorRun(b *testing.B, prefix string, f func(b *testing.B)) {
	for _, vector := range []bool{true, false} {
		b.Run(fmt.Sprintf("%svector=%v", prefix, vector), func(b *testing.B) {
			if vector && !useAVX2 {
				b.Skip("no AVX2 kernels in this build")
			}
			was := SetVectorTile(vector)
			defer SetVectorTile(was)
			f(b)
		})
	}
}

// BenchmarkKernelsSoftmax is one attention row's softmax at the context
// lengths BenchmarkKernelsAttend runs, scores in [-8, 8); each call
// starts from a fresh copy of the row.
func BenchmarkKernelsSoftmax(b *testing.B) {
	for _, ctx := range []int{24, 64, 384} {
		rng := rand.New(rand.NewSource(5))
		src, x := make([]float32, ctx), make([]float32, ctx)
		for i := range src {
			src[i] = rng.Float32()*16 - 8
		}
		vectorRun(b, fmt.Sprintf("ctx=%d/", ctx), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, src)
				Softmax(x)
			}
		})
	}
}

// BenchmarkKernelsSiLUMul is the expert FFN's activation over 4096
// values, on the vector kernels and on Go.
func BenchmarkKernelsSiLUMul(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	gate := make([]float32, 4096)
	up := make([]float32, 4096)
	dst := make([]float32, 4096)
	for i := range gate {
		gate[i] = rng.Float32() - 0.5
		up[i] = rng.Float32() - 0.5
	}
	vectorRun(b, "", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SiLUMul(dst, gate, up)
		}
	})
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

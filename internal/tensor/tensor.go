// Package tensor provides the dense float32 compute kernels the
// functional engine runs: tiled transposed-weight matrix multiplication
// and, for weights stored as 16-column panels (Panels), a column-lane
// one, each with a worker-pool parallel variant; RMSNorm, softmax,
// fused SiLU, rotary embeddings, batched attention and top-k selection,
// on flat row-major slices. Kernels are deterministic by construction:
// every variant of an operation computes each output element with the
// same accumulation order, so tiled, panel, parallel and batched paths
// agree bit for bit with their scalar counterparts at any worker count.
// The invariant: one accumulator per output element, walking its
// reduction in ascending order, the multiply and the add rounded
// separately (`s += float32(a*b)`). For the GEMM the reduction is over
// k; in attention a score is a GEMM element (a query head against one
// key's head slice, over headDim) and a combine element is one
// accumulator over the context positions t, as Axpy. The Go loops
// (matMulTBlock, Dot, Axpy — the panel GEMM is Axpy over a panel's
// rows) are the definition; on amd64 with AVX2 the assembly kernels
// (gemm_amd64.s) put eight such elements side by side in one register —
// lanes across output rows for the row-major GEMM and across query
// heads for attention scores (one tile, gemmPanel8AVX2), across output
// columns for the panel GEMM and across headDim for the combine (one
// kernel, axpyRowsAVX2); never an FMA, never a sum across lanes — and
// are tested identical to the Go loops, which every other host and
// every -race build runs. The exponential in Softmax and SiLUMul is
// exp32 (exp.go), one float32 function defined in Go step by step, each
// multiply and add rounded on its own; its AVX2 lanes (exp_amd64.s) run
// the same steps eight elements at a time and are tested identical to
// it, and Softmax states its float64 sum as eight strided parts so
// lanes can hold them. Nothing here calls math.Exp. The int8 KV codec
// (quant.go) is Go loops with AVX2 lanes beside them (quant_amd64.s),
// tested identical to them for quantization and for attention's decode.
// Modeling the performance of full-size models remains the job of the
// perfmodel/sim packages.
package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Mat is a row-major matrix view over a flat slice.
type Mat struct {
	Rows, Cols int
	Data       []float32
}

// NewMat allocates a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps an existing slice; len(data) must be rows*cols.
func FromSlice(rows, cols int, data []float32) Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: slice of %d cannot view %dx%d", len(data), rows, cols))
	}
	return Mat{Rows: rows, Cols: cols, Data: data}
}

// Row returns the i-th row as a slice view.
func (m Mat) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m Mat) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m Mat) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m Mat) Clone() Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// parallelFlops is the multiply-add count under which MatMulTParallel
// stays sequential: below it a hand-off to a pool worker costs more
// than the half of the GEMM it takes away. Measured on the 2-vCPU bench
// host with the AVX2 tile, k = 128, sequential vs fanned out (median
// us per call): 1 row 262k multiply-adds 91 vs 127, 524k 229 vs 214;
// 4 rows 229k (the decode expert GEMM) 19 vs 29, 524k 48 vs 61, 1.05M
// 115 vs 108; 16 rows 917k 47 vs 76, 4.2M 258 vs 251; 256 rows 14.7M
// (the prefill expert GEMM) 915 vs 494. A hand-off is worth 50-100 us
// there, so the crossover sits at 0.5M, 1M and 4M multiply-adds for 1,
// 4 and 16 rows; 1Mi is the decode shapes' crossover and within 10% of
// the better choice everywhere measured. The figure belongs to that
// host, whose two vCPUs wake each other slowly; it has not been
// measured on a machine with independent cores, where a cheaper
// hand-off would put the crossover lower.
const parallelFlops = 1 << 20

// panelK is the largest k whose 8-row panel fits the vector tile's
// stack scratch (16 KiB); every shape the engine runs is under it. A
// longer k runs the Go tile.
const panelK = 512

// matMulTCheck panics on a dst = a @ bT.T shape mismatch (bT [n,k]).
func matMulTCheck(dst, a, bT Mat) {
	if a.Cols != bT.Cols || dst.Rows != a.Rows || dst.Cols != bT.Rows {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch [%d,%d]@[%d,%d]T->[%d,%d]",
			a.Rows, a.Cols, bT.Rows, bT.Cols, dst.Rows, dst.Cols))
	}
}

// MatMulT computes dst = a @ bT.T for a [m,k] and bT [n,k] (b stored
// transposed, the natural layout for projection weights).
func MatMulT(dst, a, bT Mat) {
	matMulTCheck(dst, a, bT)
	matMulTBlock(dst, a, bT, 0, a.Rows, 0, bT.Rows)
}

// MatMulTParallel is MatMulT fanned out across the default worker
// pool: output rows are split, on 8-row stripe boundaries, when there
// are enough of them to occupy the workers, otherwise output columns
// (bT rows) are — so a single-token GEMV against a large projection
// (the LM head) still parallelizes. Bit-identical to MatMulT either way.
func MatMulTParallel(dst, a, bT Mat) {
	matMulTCheck(dst, a, bT)
	p := Default()
	if p.Workers() == 1 || a.Rows*a.Cols*bT.Rows < parallelFlops {
		matMulTBlock(dst, a, bT, 0, a.Rows, 0, bT.Rows)
		return
	}
	if a.Rows >= 8*p.Workers() || a.Rows >= bT.Rows {
		p.ParallelFor(a.Rows, 8, func(lo, hi int) {
			matMulTBlock(dst, a, bT, lo, hi, 0, bT.Rows)
		})
		return
	}
	p.ParallelFor(bT.Rows, 16, func(lo, hi int) {
		matMulTBlock(dst, a, bT, 0, a.Rows, lo, hi)
	})
}

// matMulTBlock computes the dst block rows [lo, hi) x cols [jlo, jhi)
// of a @ bT.T. Whole blocks of eight columns go to the AVX2 tile where
// the host has one (matMulTVec); the rest — column tails, or everything
// — runs the Go tile below, which is the definition: a 4x2 register
// tile, four a rows and two bT rows live across the shared k loop, each
// element `s += float32(a*b)`. The conversion forbids the compiler from
// fusing the pair into one FMA (it does on arm64 and may at
// GOAMD64=v3), so both tiles round the product and then the sum.
func matMulTBlock(dst, a, bT Mat, lo, hi, jlo, jhi int) {
	jlo = matMulTVec(dst, a, bT, lo, hi, jlo, jhi)
	k, n := a.Cols, jhi
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i)[:k], a.Row(i + 1)[:k], a.Row(i + 2)[:k], a.Row(i + 3)[:k]
		d0, d1, d2, d3 := dst.Row(i)[:n], dst.Row(i + 1)[:n], dst.Row(i + 2)[:n], dst.Row(i + 3)[:n]
		j := jlo
		for ; j+2 <= n; j += 2 {
			b0, b1 := bT.Row(j)[:k], bT.Row(j + 1)[:k]
			var s00, s01, s10, s11, s20, s21, s30, s31 float32
			for kk := range a0 {
				av0, av1, av2, av3 := a0[kk], a1[kk], a2[kk], a3[kk]
				bv0, bv1 := b0[kk], b1[kk]
				s00 += float32(av0 * bv0)
				s01 += float32(av0 * bv1)
				s10 += float32(av1 * bv0)
				s11 += float32(av1 * bv1)
				s20 += float32(av2 * bv0)
				s21 += float32(av2 * bv1)
				s30 += float32(av3 * bv0)
				s31 += float32(av3 * bv1)
			}
			d0[j], d0[j+1] = s00, s01
			d1[j], d1[j+1] = s10, s11
			d2[j], d2[j+1] = s20, s21
			d3[j], d3[j+1] = s30, s31
		}
		for ; j < n; j++ {
			br := bT.Row(j)[:k]
			var s0, s1, s2, s3 float32
			for kk := range br {
				bv := br[kk]
				s0 += float32(a0[kk] * bv)
				s1 += float32(a1[kk] * bv)
				s2 += float32(a2[kk] * bv)
				s3 += float32(a3[kk] * bv)
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	for ; i < hi; i++ {
		ar := a.Row(i)[:k]
		dr := dst.Row(i)[:n]
		j := jlo
		for ; j+2 <= n; j += 2 {
			b0, b1 := bT.Row(j)[:k], bT.Row(j + 1)[:k]
			var s0, s1 float32
			for kk, av := range ar {
				s0 += float32(av * b0[kk])
				s1 += float32(av * b1[kk])
			}
			dr[j], dr[j+1] = s0, s1
		}
		for ; j < n; j++ {
			br := bT.Row(j)[:k]
			var s float32
			for kk, av := range ar {
				s += float32(av * br[kk])
			}
			dr[j] = s
		}
	}
}

// Dot returns the inner product of two equal-length vectors: one
// accumulator in ascending order, each product rounded before the sum
// (the conversion forbids a fused multiply-add, as in matMulTBlock).
func Dot(a, b []float32) float32 {
	var sum float32
	for i, v := range a {
		sum += float32(v * b[i])
	}
	return sum
}

// Axpy computes y += alpha * x, the product rounded before the sum.
func Axpy(alpha float32, x, y []float32) {
	for i, v := range x {
		y[i] += float32(alpha * v)
	}
}

// Add computes dst = a + b elementwise.
func Add(dst, a, b []float32) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// RMSNorm normalizes x by its root-mean-square and scales by weight,
// writing into dst (dst may alias x).
func RMSNorm(dst, x, weight []float32, eps float32) {
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := float32(1 / math.Sqrt(ss/float64(len(x))+float64(eps)))
	for i, v := range x {
		dst[i] = v * inv * weight[i]
	}
}

// TopKInto writes into dst the indices of the k largest values of x in
// descending value order, ties toward the lower index for determinism,
// and returns it. k is clamped to [0, len(x)]; dst is truncated to length
// 0 first, and with capacity >= min(k, len(x)) the call allocates
// nothing. It runs a single pass of partial insertion selection, O(n*k)
// worst case: dst stays sorted by value descending with ties toward the
// lower index, and each input either drops out immediately against the
// current k-th value or shifts a suffix of the small dst array.
func TopKInto(dst []int, x []float32, k int) []int {
	if k > len(x) {
		k = len(x)
	}
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	for i, v := range x {
		if len(dst) == k {
			if v <= x[dst[k-1]] {
				continue // ties keep the earlier index already in dst
			}
			dst = dst[:k-1]
		}
		// Indices arrive in ascending order, so on equal values the new
		// element sorts after the incumbent: insert before the first
		// strictly smaller value.
		pos := len(dst)
		for pos > 0 && v > x[dst[pos-1]] {
			pos--
		}
		dst = append(dst, 0)
		copy(dst[pos+1:], dst[pos:len(dst)-1])
		dst[pos] = i
	}
	return dst
}

// ArgMax returns the index of the largest value (lowest index on ties).
func ArgMax(x []float32) int {
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// ropeFreqCache memoizes the per-(headDim, theta) inverse-frequency
// table; the values match the per-element 1/theta^(2i/d) computation
// bit for bit, they are just not recomputed on every call.
var ropeFreqCache sync.Map

type ropeKey struct {
	headDim int
	theta   float64
}

func ropeFreqs(headDim int, theta float64) []float64 {
	key := ropeKey{headDim: headDim, theta: theta}
	if v, ok := ropeFreqCache.Load(key); ok {
		return v.([]float64)
	}
	t := make([]float64, headDim/2)
	for i := range t {
		t[i] = 1 / math.Pow(theta, float64(2*i)/float64(headDim))
	}
	v, _ := ropeFreqCache.LoadOrStore(key, t)
	return v.([]float64)
}

// RoPE applies rotary position embeddings in place to a vector laid out
// as consecutive heads of headDim, for absolute position pos. The
// rotation angles depend only on (pos, i), so each pair's sin/cos is
// computed once and reused across every head; outputs are bit-identical
// to evaluating Pow and Sincos per element.
func RoPE(x []float32, headDim, pos int, theta float64) {
	if headDim%2 != 0 {
		panic("tensor: RoPE requires even head dimension")
	}
	freqs := ropeFreqs(headDim, theta)
	half := headDim / 2
	var sinStack, cosStack [64]float64
	sins, coss := sinStack[:], cosStack[:]
	if half > len(sinStack) {
		sins = make([]float64, half)
		coss = make([]float64, half)
	}
	for i := 0; i < half; i++ {
		sins[i], coss[i] = math.Sincos(float64(pos) * freqs[i])
	}
	for h := 0; h+headDim <= len(x); h += headDim {
		for i := 0; i < half; i++ {
			sin, cos := sins[i], coss[i]
			a, b := x[h+2*i], x[h+2*i+1]
			x[h+2*i] = a*float32(cos) - b*float32(sin)
			x[h+2*i+1] = a*float32(sin) + b*float32(cos)
		}
	}
}

package tensor

import "fmt"

// panelWidth is the number of output columns one panel of a Panels
// matrix holds.
const panelWidth = 16

// Panels is a weight matrix stored for a GEMM with lanes across output
// columns: the [N, K] matrix MatMulT would take as bT (N output columns,
// reduction length K), cut into column panels. Panel p holds output
// columns [16p, min(16p+16, N)) k-major — its w columns of reduction
// step kk are contiguous, step after step — and starts at 16p*K, so the
// last panel is narrower when N is not a multiple of 16. It is a type of
// its own so that a packed matrix cannot reach a row-major kernel.
type Panels struct {
	N, K int
	Data []float32
}

// PanelsFromSlice wraps an existing slice already in panel order;
// len(data) must be n*k.
func PanelsFromSlice(n, k int, data []float32) Panels {
	if len(data) != n*k {
		panic(fmt.Sprintf("tensor: slice of %d cannot hold %dx%d panels", len(data), n, k))
	}
	return Panels{N: n, K: k, Data: data}
}

// Col returns where output column j lives: its reduction element kk is
// Data[off + kk*stride], stride being the width of j's panel.
func (b Panels) Col(j int) (off, stride int) {
	p0 := j &^ (panelWidth - 1)
	w := min(panelWidth, b.N-p0)
	return p0*b.K + j - p0, w
}

// panels is the number of panels.
func (b Panels) panels() int { return (b.N + panelWidth - 1) / panelWidth }

// matMulPCheck panics on a dst = a @ b shape mismatch.
func matMulPCheck(dst, a Mat, b Panels) {
	if a.Cols != b.K || dst.Rows != a.Rows || dst.Cols != b.N {
		panic(fmt.Sprintf("tensor: matmulP shape mismatch [%d,%d]@[%d,%d]P->[%d,%d]",
			a.Rows, a.Cols, b.N, b.K, dst.Rows, dst.Cols))
	}
}

// MatMulP computes dst = a @ b.T for a [m,k] and b the [n,k] matrix in
// panels: the same product as MatMulT on b's row-major form, bit for
// bit.
func MatMulP(dst, a Mat, b Panels) {
	matMulPCheck(dst, a, b)
	matMulPBlock(dst, a, b, 0, a.Rows, 0, b.panels())
}

// MatMulPParallel is MatMulP fanned out across the default worker pool
// under the same rule as MatMulTParallel: sequential under
// parallelFlops, else output rows split on 4-row boundaries when there
// are enough of them, else panels. Bit-identical to MatMulP either way.
func MatMulPParallel(dst, a Mat, b Panels) {
	p := Default()
	if p.Workers() == 1 || a.Rows*a.Cols*b.N < parallelFlops {
		MatMulP(dst, a, b)
		return
	}
	matMulPCheck(dst, a, b)
	if a.Rows >= 8*p.Workers() || a.Rows >= b.N {
		p.ParallelFor(a.Rows, 4, func(lo, hi int) {
			matMulPBlock(dst, a, b, lo, hi, 0, b.panels())
		})
		return
	}
	p.ParallelFor(b.panels(), 1, func(lo, hi int) {
		matMulPBlock(dst, a, b, 0, a.Rows, lo, hi)
	})
}

// matMulPBlock computes dst rows [lo, hi) x the columns of panels
// [plo, phi). With AVX2, axpyRowsAVX2 runs each panel's first w&^7
// columns, four rows of a a call: dst starts at zero and gains
// a[i][kk] * b[j][kk] for kk ascending, the product rounded before the
// sum — MatMulT's accumulation order, so a zeroed start gives its bits
// (+0 plus the first product is that product, -0 included). The rest
// of a panel, or all of it, runs matMulPGo. Panels are the outer loop,
// so one stays in L1 across the row groups of a prefill pass.
func matMulPBlock(dst, a Mat, b Panels, lo, hi, plo, phi int) {
	k := b.K
	for p := plo; p < phi; p++ {
		j0 := p * panelWidth
		w := min(panelWidth, b.N-j0)
		panel := b.Data[j0*k : j0*k+w*k]
		vec := 0
		if useAVX2 && k > 0 {
			vec = w &^ 7
			for i := lo; i < hi && vec > 0; i += 4 {
				rows := min(4, hi-i)
				for r := i; r < i+rows; r++ {
					clear(dst.Row(r)[j0 : j0+vec])
				}
				axpyRowsAVX2(&dst.Data[i*dst.Cols+j0], dst.Cols, rows, &a.Data[i*a.Cols], a.Cols, &panel[0], w, k, vec)
			}
		}
		if vec < w {
			matMulPGo(dst, a, panel, w, lo, hi, j0, vec)
		}
	}
}

// matMulPGo is the definition: for rows [lo, hi) and columns [c0, w)
// of the panel starting at output column j0, each element one
// accumulator over kk ascending, `s += float32(a*b)` with b read at its
// panel slot, as the Go tile in matMulTBlock reads it from a row. Four
// adjacent columns of a panel row are contiguous, so the tile is four
// rows by four columns, then one row by four; a column tail short of
// four runs one accumulator at a time. The tile keeps slice reads to
// half a read per multiply-add: a -race build instruments every read
// and runs the engine's tests on this loop.
func matMulPGo(dst, a Mat, panel []float32, w, lo, hi, j0, c0 int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		c := c0
		for ; c+4 <= w; c += 4 {
			var s [4][4]float32
			for kk, av0 := range a0 {
				bs := panel[kk*w+c : kk*w+c+4]
				b0, b1, b2, b3 := bs[0], bs[1], bs[2], bs[3]
				av1, av2, av3 := a1[kk], a2[kk], a3[kk]
				s[0][0] += float32(av0 * b0)
				s[0][1] += float32(av0 * b1)
				s[0][2] += float32(av0 * b2)
				s[0][3] += float32(av0 * b3)
				s[1][0] += float32(av1 * b0)
				s[1][1] += float32(av1 * b1)
				s[1][2] += float32(av1 * b2)
				s[1][3] += float32(av1 * b3)
				s[2][0] += float32(av2 * b0)
				s[2][1] += float32(av2 * b1)
				s[2][2] += float32(av2 * b2)
				s[2][3] += float32(av2 * b3)
				s[3][0] += float32(av3 * b0)
				s[3][1] += float32(av3 * b1)
				s[3][2] += float32(av3 * b2)
				s[3][3] += float32(av3 * b3)
			}
			for r := range s {
				copy(dst.Row(i + r)[j0+c:j0+c+4], s[r][:])
			}
		}
		matMulPCols(dst, a, panel, w, i, i+4, j0, c)
	}
	matMulPCols(dst, a, panel, w, i, hi, j0, c0)
}

// matMulPCols is matMulPGo's one-row loops: four columns at a time,
// then one.
func matMulPCols(dst, a Mat, panel []float32, w, lo, hi, j0, c0 int) {
	for i := lo; i < hi; i++ {
		ar, dr := a.Row(i), dst.Row(i)[j0:j0+w]
		c := c0
		for ; c+4 <= w; c += 4 {
			var s0, s1, s2, s3 float32
			for kk, av := range ar {
				bs := panel[kk*w+c : kk*w+c+4]
				s0 += float32(av * bs[0])
				s1 += float32(av * bs[1])
				s2 += float32(av * bs[2])
				s3 += float32(av * bs[3])
			}
			dr[c], dr[c+1], dr[c+2], dr[c+3] = s0, s1, s2, s3
		}
		for ; c < w; c++ {
			var s float32
			for kk, av := range ar {
				s += float32(av * panel[kk*w+c])
			}
			dr[c] = s
		}
	}
}

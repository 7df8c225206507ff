package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// packPanels stores bT, the [n, k] matrix MatMulT takes, as panels,
// through Col.
func packPanels(bT Mat) Panels {
	b := PanelsFromSlice(bT.Rows, bT.Cols, make([]float32, bT.Rows*bT.Cols))
	for j := 0; j < bT.Rows; j++ {
		off, stride := b.Col(j)
		for kk, v := range bT.Row(j) {
			b.Data[off+kk*stride] = v
		}
	}
	return b
}

// TestPanelsCol states the layout independently of Col: element (j, kk)
// sits at (j/16)*16*k + kk*w + j%16, w the width of j's panel (16, or
// what is left of n), and the n*k slots are each used once.
func TestPanelsCol(t *testing.T) {
	for _, sh := range [][2]int{{448, 128}, {128, 448}, {100, 60}, {24, 1}, {12, 7}, {8, 3}, {33, 5}} {
		n, k := sh[0], sh[1]
		b := Panels{N: n, K: k}
		seen := make([]bool, n*k)
		for j := 0; j < n; j++ {
			off, stride := b.Col(j)
			w := min(16, n-j/16*16)
			for kk := 0; kk < k; kk++ {
				want := j/16*16*k + kk*w + j%16
				if got := off + kk*stride; got != want || seen[got] {
					t.Fatalf("n %d k %d: (%d, %d) at %d, want %d (seen %v)", n, k, j, kk, got, want, seen[got])
				}
				seen[want] = true
			}
		}
	}
}

// TestMatMulPMatchesMatMulT is the panel GEMM's contract as a property:
// MatMulP and MatMulPParallel (over a three-worker pool, so both of its
// splits run) write MatMulT's bits into a dst that starts as garbage —
// over rows 1-16, 64 and 256; n 448 and 128 (the expert shapes) and 100,
// 60, 24, 12 and 8, whose last panel is 4, 12, 8, 12 and 8 wide (a tail
// that is a multiple of eight, one that is not, and one under eight);
// k 1, 60, 128 and 448; random and awkward values — on the Go
// definition and on the AVX2 kernel.
func TestMatMulPMatchesMatMulT(t *testing.T) {
	Default()
	was := defaultPool
	defaultPool = NewPool(3)
	defer func() { defaultPool = was }()
	rowCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 64, 256}
	kernels := []struct {
		name string
		f    func(dst, a Mat, b Panels)
	}{{"MatMulP", MatMulP}, {"MatMulPParallel", MatMulPParallel}}
	eachTile(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(40))
		for _, n := range []int{448, 128, 100, 60, 24, 12, 8} {
			for _, k := range []int{1, 60, 128, 448} {
				awkward := (n+k)%2 == 1
				bT := randMat(rng, n, k)
				if awkward {
					bT = awkwardMat(rng, n, k)
				}
				b := packPanels(bT)
				for _, rows := range rowCounts {
					a := randMat(rng, rows, k)
					if awkward {
						a = awkwardMat(rng, rows, k)
					}
					want := NewMat(rows, n)
					MatMulT(want, a, bT)
					for _, kern := range kernels {
						got := NewMat(rows, n)
						for i := range got.Data {
							got.Data[i] = float32(math.NaN())
						}
						kern.f(got, a, b)
						for i := range want.Data {
							if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
								t.Fatalf("%s [%d,%d]@[%d,%d]P: dst[%d][%d] = %#08x, want %#08x", kern.name,
									rows, k, n, k, i/n, i%n, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
							}
						}
					}
				}
			}
		}
	})
}

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// forceVectorTile runs the rest of the test with the AVX2 tile on or
// off. Tests that use it must not run in parallel.
func forceVectorTile(t *testing.T, on bool) {
	was := SetVectorTile(on)
	t.Cleanup(func() { SetVectorTile(was) })
}

// eachTile runs f once per GEMM tile the build has: always the Go tile,
// and the AVX2 tile where CPUID reports one (never under -race, which
// builds the Go tile only).
func eachTile(t *testing.T, f func(t *testing.T)) {
	t.Run("go", func(t *testing.T) {
		forceVectorTile(t, false)
		f(t)
	})
	t.Run("avx2", func(t *testing.T) {
		if !useAVX2 {
			t.Skip("no AVX2 tile (host without AVX2, or a -race build): the Go tile is the only kernel here")
		}
		f(t)
	})
}

// awkwardMat fills a matrix with values in [-1, 1) salted with the
// inputs a vector unit could treat differently from scalar code:
// signed zeros, denormals, the largest finite value and infinities
// (whose products with zero make the NaNs).
func awkwardMat(rng *rand.Rand, rows, cols int) Mat {
	awkward := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)),
	}
	m := randMat(rng, rows, cols)
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			m.Data[i] = awkward[rng.Intn(len(awkward))]
		}
	}
	return m
}

// TestMatMulTBlockMatchesNaive is the tile's contract as a property:
// over random shapes with every row and column tail, k up to past the
// panel scratch bound (where the Go tile takes over) and awkward values,
// any sub-block computed by
// matMulTBlock carries exactly matMulTNaive's bits and nothing outside
// the sub-block is written — on the Go tile and on the AVX2 tile.
func TestMatMulTBlockMatchesNaive(t *testing.T) {
	eachTile(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		ks := []int{panelK - 1, panelK, panelK + 1, panelK + 37}
		const untouched = 0x7fc12345 // a NaN no computation here produces
		for trial := 0; trial < 300; trial++ {
			m, n, k := 1+rng.Intn(40), 1+rng.Intn(70), 1+rng.Intn(96)
			if trial%10 == 0 {
				k = ks[trial/10%len(ks)]
			}
			a, bT := randMat(rng, m, k), randMat(rng, n, k)
			if trial%2 == 1 {
				a, bT = awkwardMat(rng, m, k), awkwardMat(rng, n, k)
			}
			want := NewMat(m, n)
			matMulTNaive(want, a, bT)

			lo, jlo := rng.Intn(m), rng.Intn(n)
			hi, jhi := lo+1+rng.Intn(m-lo), jlo+1+rng.Intn(n-jlo)
			if trial%3 == 0 {
				lo, hi, jlo, jhi = 0, m, 0, n
			}
			got := NewMat(m, n)
			for i := range got.Data {
				got.Data[i] = math.Float32frombits(untouched)
			}
			matMulTBlock(got, a, bT, lo, hi, jlo, jhi)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					wantBits := uint32(untouched)
					if i >= lo && i < hi && j >= jlo && j < jhi {
						wantBits = math.Float32bits(want.At(i, j))
					}
					if gotBits := math.Float32bits(got.At(i, j)); gotBits != wantBits {
						t.Fatalf("trial %d [%d,%d,%d] block rows [%d,%d) cols [%d,%d): dst[%d][%d] = %#08x, want %#08x",
							trial, m, k, n, lo, hi, jlo, jhi, i, j, gotBits, wantBits)
					}
				}
			}
		}
	})
}

// TestMatMulTTilesAgree runs the two standing bit-identity tests on
// each tile (on their own they see only the host's default).
func TestMatMulTTilesAgree(t *testing.T) {
	eachTile(t, func(t *testing.T) {
		TestMatMulTBlockedBitIdentical(t)
		TestMatMulTParallelBitIdentical(t)
	})
}

// TestMatMulTParallelNoAllocs pins the panel scratch to the stack: at
// the bench model's decode and prefill expert shapes a sequential
// MatMulTParallel, and MatMulPParallel over the same matrix in panels,
// allocate nothing on either tile. (Fanned out over
// several workers it allocates the closure and wait group it always
// has; AllocsPerRun measures at GOMAXPROCS 1, so the default pool is
// swapped for a one-worker one.)
func TestMatMulTParallelNoAllocs(t *testing.T) {
	Default()
	was := defaultPool
	defaultPool = NewPool(1)
	defer func() { defaultPool = was }()
	eachTile(t, func(t *testing.T) {
		for _, sh := range [][3]int{{4, 128, 448}, {256, 448, 128}} {
			a, bT, dst := benchMats(sh[0], sh[1], sh[2])
			if n := testing.AllocsPerRun(10, func() { MatMulTParallel(dst, a, bT) }); n != 0 {
				t.Errorf("MatMulTParallel %dx%d->%d: %v allocs per call, want 0", sh[0], sh[1], sh[2], n)
			}
			b := packPanels(bT)
			if n := testing.AllocsPerRun(10, func() { MatMulPParallel(dst, a, b) }); n != 0 {
				t.Errorf("MatMulPParallel %dx%d->%d: %v allocs per call, want 0", sh[0], sh[1], sh[2], n)
			}
		}
	})
}

//go:build !race

package tensor

// useAVX2 selects the vector tile in matMulTBlock. It is set once from
// CPUID; only tests assign it afterwards, to run both tiles on one host.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func gemmPanel8AVX2(dst *float32, ldd, rows int, panel *float32, k int, b *float32, ldb, nblk int)

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

package tensor

// SetVectorTile forces the vector kernels (the AVX2 GEMM tile, the
// panel GEMM's column lanes, attention's score and combine kernels, and
// exp32's lanes in Softmax and SiLUMul) on or off and reports the previous setting, for tests
// outside the package that run the engine on both kernel sets. The
// first call's return value is the host's detection.
func SetVectorTile(on bool) (was bool) {
	was, useAVX2 = useAVX2, on
	return was
}

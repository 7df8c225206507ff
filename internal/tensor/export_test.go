package tensor

// SetVectorTile forces the vector kernels (the AVX2 GEMM tile, the
// panel GEMM's column lanes, attention's score, scaling and combine
// kernels, exp32's lanes in Softmax and SiLUMul, and the int8 codec's
// lanes) on or off and reports the previous setting, for tests outside
// the package that run the engine on both kernel sets. The first call's
// return value is the host's detection.
func SetVectorTile(on bool) (was bool) {
	was, useAVX2 = useAVX2, on
	return was
}

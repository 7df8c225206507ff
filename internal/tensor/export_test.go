package tensor

// SetVectorTile forces the AVX2 GEMM tile on or off and reports the
// previous setting, for tests outside the package that run the engine
// on both tiles. The first call's return value is the host's detection.
func SetVectorTile(on bool) (was bool) {
	was, useAVX2 = useAVX2, on
	return was
}

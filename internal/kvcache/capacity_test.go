package kvcache

import (
	"errors"
	"testing"

	"moelightning/internal/memory"
)

// TestPoolTokensRecutsFloat32Bytes: a pool's capacity is float32-token
// bytes in whole blocks. F32 is the budget rounded up to a block; Int8
// re-cuts those bytes into its own blocks (32/9 as many at kvDim 32);
// and a cache of either codec over ArenaFloats fills the arena to the
// float with F32 and holds exactly PoolTokens tokens a layer.
func TestPoolTokensRecutsFloat32Bytes(t *testing.T) {
	const layers, kvDim, budget = 3, 32, 100 // 7 float32 blocks
	if got := PoolTokens(kvDim, budget, F32); got != 7*DefaultBlockTokens {
		t.Errorf("F32 PoolTokens = %d, want %d", got, 7*DefaultBlockTokens)
	}
	// 7 blocks x 256 B a token / 72 B a token = 24.9 int8 blocks.
	if got := PoolTokens(kvDim, budget, Int8); got != 24*DefaultBlockTokens {
		t.Errorf("Int8 PoolTokens = %d, want %d", got, 24*DefaultBlockTokens)
	}
	for _, dtype := range []DType{F32, Int8} {
		arena := memory.NewArena("pool", ArenaFloats(layers, kvDim, budget))
		c, err := New(arena, layers, kvDim, DefaultBlockTokens, PoolTokens(kvDim, budget, dtype), dtype)
		if err != nil {
			t.Fatalf("%v: %v", dtype, err)
		}
		if dtype == F32 {
			if _, err := arena.Alloc(1); err == nil {
				t.Error("F32 pool does not fill its arena exactly")
			}
		}
		k := make([]float32, kvDim)
		for pos := 0; pos < PoolTokens(kvDim, budget, dtype); pos++ {
			for l := 0; l < layers; l++ {
				if err := c.Append(pos/DefaultBlockTokens, l, k, k); err != nil {
					t.Fatalf("%v: token %d: %v", dtype, pos, err)
				}
			}
		}
		if err := c.Append(1<<20, 0, k, k); !errors.Is(err, ErrOutOfBlocks) {
			t.Errorf("%v: a full pool took another block: %v", dtype, err)
		}
	}
}

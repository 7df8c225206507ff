package engine

import (
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
)

// Host is the memory a functional engine runs in: the CPU-resident
// weights plus the GPU, pinned-staging and KV-cache arenas a pipeline
// is built over. A server carves the arenas into its one pipeline once.
type Host struct {
	W                  *Weights
	GPU, Pinned, Cache *memory.Arena
}

// arenaSlack is the per-arena headroom (in floats) on top of the sized
// terms: activations, transfer buffers and allocator rounding.
const arenaSlack = 4 << 20

// NewHost builds seeded weights and sizes the arenas for pipelines of up
// to waveSeqs sequences of maxContext tokens — the one place that
// sizing lives. The GPU and pinned arenas each hold the double-buffered
// shared region (within 2 layers' floats) and the activation rows; the
// GPU arena also holds the expert residency pool for residencyBytes
// (Config.ExpertResidencyBytes; <= 0 is the two-layer default), which
// expert blocks reach in one copy from the CPU arena. The cache arena
// is kvcache.ArenaFloats for waveSeqs x maxContext float32 tokens: the
// pool a pipeline of that shape builds under any codec, exactly.
func NewHost(m model.Config, seed int64, waveSeqs, maxContext, residencyBytes int) (*Host, error) {
	layout := NewLayout(m)
	bufferFloats := 2*layout.LayerFloats() + arenaSlack
	w, err := NewRandomWeights(memory.NewArena("cpu", m.Layers*layout.LayerFloats()+arenaSlack), m, seed)
	if err != nil {
		return nil, err
	}
	return &Host{
		W:      w,
		GPU:    memory.NewArena("gpu", bufferFloats+layout.ResidencySlots(residencyBytes)*layout.ExpertFloats()),
		Pinned: memory.NewArena("pinned", bufferFloats),
		Cache:  memory.NewArena("kvcache", kvcache.ArenaFloats(m.Layers, m.KVDim(), waveSeqs*maxContext)),
	}, nil
}

// ContextBound is the MaxContext that serves prompt+gen tokens per
// sequence: the KV pool and the admission budget both count whole
// kvcache.DefaultBlockTokens-token blocks, so the bound is rounded to
// block granularity with two blocks of headroom.
func ContextBound(prompt, gen int) int {
	const b = kvcache.DefaultBlockTokens
	return (prompt+gen)/b*b + 2*b
}

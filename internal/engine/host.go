package engine

import (
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
)

// Host is the memory a functional engine runs in: the CPU-resident
// weights plus the GPU, pinned-staging and KV-cache arenas every
// pipeline is built over. The weights persist; a server resets the
// three arenas between waves.
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
// shared region (within 2 layers' floats) plus the expert residency
// pool (and its per-slot pinned staging) for residencyBytes
// (Config.ExpertResidencyBytes; <= 0 is the two-layer default); the
// cache arena holds K and V for every sequence twice over, float32
// regardless of codec, so a Reference over the same arena size always
// fits too.
func NewHost(m model.Config, seed int64, waveSeqs, maxContext, residencyBytes int) (*Host, error) {
	layout := NewLayout(m)
	weightFloats := 2*layout.LayerFloats() + layout.ResidencySlots(residencyBytes)*layout.ExpertFloats() + arenaSlack
	w, err := NewRandomWeights(memory.NewArena("cpu", m.Layers*layout.LayerFloats()+arenaSlack), m, seed)
	if err != nil {
		return nil, err
	}
	return &Host{
		W:      w,
		GPU:    memory.NewArena("gpu", weightFloats),
		Pinned: memory.NewArena("pinned", weightFloats),
		Cache:  memory.NewArena("kvcache", 2*waveSeqs*maxContext*m.KVDim()*2+arenaSlack),
	}, nil
}

// ContextBound is the MaxContext that serves prompt+gen tokens per
// sequence: the KV pool carves numSeqs*MaxContext tokens into
// kvcache.DefaultBlockTokens-token blocks and every sequence occupies
// whole blocks, so the bound is rounded to block granularity with two
// blocks of headroom.
func ContextBound(prompt, gen int) int {
	const b = kvcache.DefaultBlockTokens
	return (prompt+gen)/b*b + 2*b
}

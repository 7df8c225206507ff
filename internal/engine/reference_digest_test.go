package engine

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// TestReferenceTokensDigest pins the sequential reference's tokens per
// model and KV codec, as TestPaperGraphsUnchanged pins the paper's
// graphs. Every identity test compares the pipeline with the reference,
// so a change that moves both alike — a weight layout, a kernel, the
// draw order of the random weights — passes them all; here it shows up
// as an edited digest. Two models: bench-moe-8x at the benchmark's
// weight seed, and odd-moe (TestEngineTokensSameOnBothTiles' model,
// whose widths are no multiple of eight). On bench-moe-8x int8 KV
// happens to flip no greedy token, so its two digests are equal. A
// deliberate change to the forward replaces the digests.
func TestReferenceTokensDigest(t *testing.T) {
	bench := model.Config{
		Name: "bench-moe-8x", Layers: 6, Hidden: 128, Intermediate: 448,
		QHeads: 8, KVHeads: 2, HeadDim: 16, Experts: 8, TopK: 2, VocabSize: 512,
		WeightDType: model.F32, KVDType: model.F32,
	}
	odd := model.Config{
		Name: "odd-moe", Layers: 3, Hidden: 60, Intermediate: 100,
		QHeads: 6, KVHeads: 3, HeadDim: 10, Experts: 6, TopK: 2, VocabSize: 250,
		WeightDType: model.F32, KVDType: model.F32,
	}
	reqs := []workload.Request{{ID: 0, PromptLen: 37}, {ID: 1, PromptLen: 5}, {ID: 2, PromptLen: 20},
		{ID: 3, PromptLen: 1}}
	const genLen, maxContext = 12, 64
	for _, c := range []struct {
		m      model.Config
		seed   int64
		dtype  kvcache.DType
		digest uint64
	}{
		{bench, 1234, kvcache.F32, 0x165d798885a714c1},
		{bench, 1234, kvcache.Int8, 0x165d798885a714c1},
		{odd, 99, kvcache.F32, 0xe6f9150d38aace38},
		{odd, 99, kvcache.Int8, 0x7bd4e0d90c6700b8},
	} {
		t.Run(c.m.Name+"/"+c.dtype.String(), func(t *testing.T) {
			layout := NewLayout(c.m)
			w, err := NewRandomWeights(memory.NewArena("cpu", c.m.Layers*layout.LayerFloats()), c.m, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewReferenceKV(w, memory.NewArena("kv", kvcache.ArenaFloats(c.m.Layers, c.m.KVDim(), len(reqs)*maxContext)),
				len(reqs), maxContext, c.dtype)
			if err != nil {
				t.Fatal(err)
			}
			tokens, err := ref.Generate(PromptsFromRequests(reqs, c.m.VocabSize), genLen)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, seq := range tokens {
				for _, tok := range seq {
					binary.LittleEndian.PutUint64(buf[:], uint64(tok))
					h.Write(buf[:])
				}
			}
			if got := h.Sum64(); got != c.digest {
				t.Errorf("reference tokens digest %#016x, want %#016x\ntokens %v", got, c.digest, tokens)
			}
		})
	}
}

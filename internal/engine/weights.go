package engine

import (
	"math"
	"math/rand"

	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/tensor"
)

// Weights holds a model's parameters: per-layer flat regions in the CPU
// arena (the offload home), plus the embedding table which stays GPU-
// resident (it doubles as the tied LM head).
type Weights struct {
	Cfg    model.Config
	Layout Layout
	// Layers[i] is layer i's flat weight region in CPU memory.
	Layers []memory.Region
	// Embedding is [vocab, hidden]; the LM head is its transpose.
	Embedding tensor.Mat
	// FinalNorm is the pre-head RMSNorm weight.
	FinalNorm []float32
}

// NewRandomWeights allocates and deterministically initializes weights
// in the CPU arena. Values are small (scaled by 1/sqrt(fan-in)) so
// activations stay well-conditioned for float32 equivalence tests.
func NewRandomWeights(cpu *memory.Arena, cfg model.Config, seed int64) (*Weights, error) {
	layout := NewLayout(cfg)
	w := &Weights{
		Cfg:       cfg,
		Layout:    layout,
		Embedding: tensor.NewMat(cfg.VocabSize, cfg.Hidden),
		FinalNorm: make([]float32, cfg.Hidden),
	}
	rng := rand.New(rand.NewSource(seed))
	scale := float32(1 / math.Sqrt(float64(cfg.Hidden)))
	for i := range w.Embedding.Data {
		w.Embedding.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	for i := range w.FinalNorm {
		w.FinalNorm[i] = 1
	}
	for l := 0; l < cfg.Layers; l++ {
		r, err := cpu.Alloc(layout.LayerFloats())
		if err != nil {
			return nil, err
		}
		data := r.Data()
		for i := range data[:layout.SharedFloats()] {
			data[i] = (rng.Float32()*2 - 1) * scale
		}
		// Expert matrices take the same draws in the same order, row
		// after row of [out, in], each element written to its panel slot.
		for e := 0; e < cfg.Experts; e++ {
			gate, up, down := layout.Expert(data, e)
			for _, m := range []tensor.Panels{gate, up, down} {
				for j := 0; j < m.N; j++ {
					off, stride := m.Col(j)
					for kk := 0; kk < m.K; kk++ {
						m.Data[off+kk*stride] = (rng.Float32()*2 - 1) * scale
					}
				}
			}
		}
		// Norm weights want to be ~1, not ~0.
		for i, v := range layout.AttnNorm(data) {
			layout.AttnNorm(data)[i] = 1 + v*0.1
		}
		for i, v := range layout.FFNNorm(data) {
			layout.FFNNorm(data)[i] = 1 + v*0.1
		}
		w.Layers = append(w.Layers, r)
	}
	return w, nil
}

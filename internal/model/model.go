// Package model describes MoE transformer architectures — the M in the
// paper's T(M, H, W, P) performance model (Tab. 1) — and provides exact
// per-operation FLOP and byte counts used by the roofline analysis, the
// policy optimizer and the simulator.
//
// Counting conventions (identical to the paper's §4.2 "theoretically
// calculated computation flops and bytes"):
//   - one multiply-accumulate = 2 FLOPs;
//   - a GEMM of (m×k)·(k×n) costs 2mkn FLOPs;
//   - decode processes one token per sequence per pass, prefill
//     processes the whole prompt;
//   - weight bytes use the weight dtype, KV bytes the KV dtype.
package model

import "fmt"

// DType is a tensor element type; its value is the size in bytes.
type DType int

// Supported element types. Int4 is modeled as half a byte via BytesOf.
const (
	F32  DType = 4
	F16  DType = 2
	Int8 DType = 1
	Int4 DType = -4 // special-cased: 0.5 bytes
)

// Bytes returns the storage size of one element as a float (int4 = 0.5).
func (d DType) Bytes() float64 {
	if d == Int4 {
		return 0.5
	}
	return float64(d)
}

func (d DType) String() string {
	switch d {
	case F32:
		return "f32"
	case F16:
		return "f16"
	case Int8:
		return "int8"
	case Int4:
		return "int4"
	}
	return fmt.Sprintf("dtype(%d)", int(d))
}

// Config describes an MoE transformer (Tab. 1, M).
type Config struct {
	Name string
	// Layers is the number of transformer blocks (l).
	Layers int
	// Hidden is the model hidden dimension (h1).
	Hidden int
	// Intermediate is the expert FFN hidden dimension (h2).
	Intermediate int
	// QHeads and KVHeads are the GQA attention head counts (n_q, n_kv).
	QHeads  int
	KVHeads int
	// HeadDim is the per-head dimension; Hidden = QHeads*HeadDim for all
	// the evaluated models.
	HeadDim int
	// Experts is the number of experts per layer (n_e); TopK the routed
	// experts per token (k).
	Experts int
	TopK    int
	// VocabSize sizes the embedding and LM head.
	VocabSize int
	// WeightDType and KVDType are the storage types.
	WeightDType DType
	KVDType     DType
}

// Validate reports an error for inconsistent configs.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.Hidden <= 0 || c.Intermediate <= 0:
		return fmt.Errorf("model: %s: non-positive dimensions", c.Name)
	case c.QHeads <= 0 || c.KVHeads <= 0 || c.HeadDim <= 0:
		return fmt.Errorf("model: %s: non-positive head geometry", c.Name)
	case c.QHeads%c.KVHeads != 0:
		return fmt.Errorf("model: %s: QHeads (%d) must be a multiple of KVHeads (%d)", c.Name, c.QHeads, c.KVHeads)
	case c.Experts <= 0 || c.TopK <= 0 || c.TopK > c.Experts:
		return fmt.Errorf("model: %s: invalid expert routing %d of %d", c.Name, c.TopK, c.Experts)
	case c.QHeads*c.HeadDim != c.Hidden:
		return fmt.Errorf("model: %s: QHeads*HeadDim (%d) != Hidden (%d)", c.Name, c.QHeads*c.HeadDim, c.Hidden)
	}
	return nil
}

// QDim, KVDim are the projected query and key/value widths.
func (c Config) QDim() int  { return c.QHeads * c.HeadDim }
func (c Config) KVDim() int { return c.KVHeads * c.HeadDim }

// AttnWeightParams counts attention projection parameters per layer:
// Q (h1×h1), K and V (h1×kv), O (h1×h1).
func (c Config) AttnWeightParams() int64 {
	h := int64(c.Hidden)
	return h*int64(c.QDim()) + 2*h*int64(c.KVDim()) + int64(c.QDim())*h
}

// ExpertParams counts one expert's parameters: gate, up (h1×h2) and
// down (h2×h1) — the SwiGLU FFN used by Mixtral and DBRX.
func (c Config) ExpertParams() int64 {
	return 3 * int64(c.Hidden) * int64(c.Intermediate)
}

// FFNWeightParams counts all experts plus the router for one layer.
func (c Config) FFNWeightParams() int64 {
	return int64(c.Experts)*c.ExpertParams() + int64(c.Hidden)*int64(c.Experts)
}

// LayerWeightParams counts one transformer block (attention + MoE FFN +
// the two norm vectors).
func (c Config) LayerWeightParams() int64 {
	return c.AttnWeightParams() + c.FFNWeightParams() + 2*int64(c.Hidden)
}

// SharedWeightParams counts the per-layer weights outside the expert
// blocks — attention projections, router and the two norms. This is
// the shared prefix of the engine's paged layout split: it rides the
// scheduled double-buffer lane while expert blocks page individually.
func (c Config) SharedWeightParams() int64 {
	return c.AttnWeightParams() + int64(c.Hidden)*int64(c.Experts) + 2*int64(c.Hidden)
}

// TotalParams counts the full model including embeddings and LM head.
func (c Config) TotalParams() int64 {
	emb := 2 * int64(c.VocabSize) * int64(c.Hidden)
	return int64(c.Layers)*c.LayerWeightParams() + emb + int64(c.Hidden)
}

// Per-layer byte footprints.

// AttnWeightBytes is the attention projection weight size per layer.
func (c Config) AttnWeightBytes() int64 {
	return int64(float64(c.AttnWeightParams()) * c.WeightDType.Bytes())
}

// FFNWeightBytes is the MoE FFN weight size per layer (all experts).
func (c Config) FFNWeightBytes() int64 {
	return int64(float64(c.FFNWeightParams()) * c.WeightDType.Bytes())
}

// LayerWeightBytes is the total block weight size per layer.
func (c Config) LayerWeightBytes() int64 {
	return int64(float64(c.LayerWeightParams()) * c.WeightDType.Bytes())
}

// SharedWeightBytes is the per-layer shared attention/router prefix
// size; SharedWeightBytes + Experts*ExpertBlockBytes covers the layer.
func (c Config) SharedWeightBytes() int64 {
	return int64(float64(c.SharedWeightParams()) * c.WeightDType.Bytes())
}

// ExpertBlockBytes is one pageable expert FFN block (gate, up, down).
func (c Config) ExpertBlockBytes() int64 {
	return int64(float64(c.ExpertParams()) * c.WeightDType.Bytes())
}

// TotalWeightBytes is the whole-model weight size.
func (c Config) TotalWeightBytes() int64 {
	return int64(float64(c.TotalParams()) * c.WeightDType.Bytes())
}

// KVBytesPerTokenLayer is the KV-cache footprint of one token in one
// layer: key + value, each KVDim wide.
func (c Config) KVBytesPerTokenLayer() float64 {
	return 2 * float64(c.KVDim()) * c.KVDType.Bytes()
}

// HiddenBytes is the activation footprint of n tokens' hidden states.
func (c Config) HiddenBytes(n int) int64 {
	return int64(float64(n) * float64(c.Hidden) * c.WeightDType.Bytes())
}

// QKVBytes is the footprint of n tokens' projected Q, K and V — what
// CGOPipe offloads to the CPU after pre-attention (D1 in §4.1).
func (c Config) QKVBytes(n int) int64 {
	per := float64(c.QDim()+2*c.KVDim()) * c.WeightDType.Bytes()
	return int64(float64(n) * per)
}

func (c Config) String() string {
	return fmt.Sprintf("%s: %d layers, h=%d/%d, %d experts top-%d, %.1fB params (%s)",
		c.Name, c.Layers, c.Hidden, c.Intermediate, c.Experts, c.TopK,
		float64(c.TotalParams())/1e9, c.WeightDType)
}

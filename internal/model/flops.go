package model

// Per-operation FLOP and byte counts for the decode and prefill stages.
// These drive the roofline plots (§3.3), the performance model (§4.2)
// and the simulator task durations. "Bytes" always means the bytes the
// executing processor must move from its own memory level; cross-level
// transfer bytes are accounted separately by the performance model.

// OpCost is the cost of one operation for a group of tokens.
type OpCost struct {
	// FLOPs performed.
	FLOPs float64
	// WeightBytes read from the executing device's memory (weights and
	// other per-layer constants).
	WeightBytes float64
	// ActBytes moved for activations, KV cache and intermediate results.
	ActBytes float64
}

// Bytes is the total memory traffic of the op.
func (o OpCost) Bytes() float64 { return o.WeightBytes + o.ActBytes }

// Intensity is the operational intensity I = FLOPs/Bytes (§3.1).
func (o OpCost) Intensity() float64 {
	b := o.Bytes()
	if b == 0 {
		return 0
	}
	return o.FLOPs / b
}

// Add accumulates another cost.
func (o OpCost) Add(p OpCost) OpCost {
	return OpCost{o.FLOPs + p.FLOPs, o.WeightBytes + p.WeightBytes, o.ActBytes + p.ActBytes}
}

// Scale multiplies all components by f.
func (o OpCost) Scale(f float64) OpCost {
	return OpCost{o.FLOPs * f, o.WeightBytes * f, o.ActBytes * f}
}

// PreAttnCost is the decode-stage pre-attention work for n tokens in one
// layer: RMSNorm + QKV projection (the "A" boxes in Fig. 6).
func (c Config) PreAttnCost(n int) OpCost {
	h := float64(c.Hidden)
	qkv := float64(c.QDim() + 2*c.KVDim())
	tokens := float64(n)
	return OpCost{
		FLOPs:       tokens * (2*h*qkv + 4*h), // GEMM + norm
		WeightBytes: h * qkv * c.WeightDType.Bytes(),
		ActBytes:    tokens * (h + qkv) * c.WeightDType.Bytes(),
	}
}

// AttnCost is the decode-stage attention core (softmax part only, §3.3
// footnote 3) for n tokens each attending over context tokens of history.
// FLOPs: QK^T and AV are each 2*nq*dh*context per token.
func (c Config) AttnCost(n, context int) OpCost {
	tokens := float64(n)
	ctx := float64(context)
	qdh := float64(c.QHeads * c.HeadDim)
	return OpCost{
		FLOPs: tokens * (4*qdh*ctx + 3*float64(c.QHeads)*ctx), // matmuls + softmax
		// The KV cache read dominates traffic; GQA shares KV across
		// QHeads/KVHeads query heads.
		ActBytes: tokens * (ctx*c.KVBytesPerTokenLayer() + 2*qdh*c.WeightDType.Bytes()),
	}
}

// PostAttnCost is the decode-stage post-attention work for n tokens in
// one layer: O projection + router + top-k expert FFNs (the "C" boxes in
// Fig. 6). expertsTouched is how many distinct experts the micro-batch
// activates (<= Experts); at realistic micro-batch sizes it is all of
// them, which is what makes the FFN weight re-read per micro-batch the
// dominant GPU-side cost (§6.2, Fig. 9).
func (c Config) PostAttnCost(n, expertsTouched int) OpCost {
	h := float64(c.Hidden)
	h2 := float64(c.Intermediate)
	tokens := float64(n)
	oProj := OpCost{
		FLOPs:       tokens * 2 * float64(c.QDim()) * h,
		WeightBytes: float64(c.QDim()) * h * c.WeightDType.Bytes(),
		ActBytes:    tokens * 2 * h * c.WeightDType.Bytes(),
	}
	router := OpCost{
		FLOPs:       tokens * 2 * h * float64(c.Experts),
		WeightBytes: h * float64(c.Experts) * c.WeightDType.Bytes(),
	}
	ffn := OpCost{
		// Each token runs TopK experts; each expert applies 3 h1×h2
		// GEMMs (gate, up, down) plus the SwiGLU elementwise work.
		FLOPs:       tokens * float64(c.TopK) * (3*2*h*h2 + 2*h2),
		WeightBytes: float64(expertsTouched) * float64(c.ExpertParams()) * c.WeightDType.Bytes(),
		ActBytes:    tokens * float64(c.TopK) * (2*h + 2*h2) * c.WeightDType.Bytes(),
	}
	return oProj.Add(router).Add(ffn)
}

// ExpertsTouched estimates how many distinct experts a micro-batch of n
// tokens activates under near-uniform routing: E[distinct] =
// e·(1-(1-k/e)^n). For n >= ~16 with Mixtral's 8-choose-2 this is ~all.
func (c Config) ExpertsTouched(n int) int {
	e := float64(c.Experts)
	k := float64(c.TopK)
	p := 1.0
	frac := 1 - k/e
	for i := 0; i < n; i++ {
		p *= frac
		if p < 1e-9 {
			p = 0
			break
		}
	}
	touched := int(e*(1-p) + 0.9999)
	if touched < c.TopK {
		touched = c.TopK
	}
	if touched > c.Experts {
		touched = c.Experts
	}
	return touched
}

// PrefillCost is the whole-model prefill cost for total prompt tokens,
// which the paper runs entirely on GPU (§4 footnote 7). Attention here
// is causal over the prompt; we charge the average context s/2.
func (c Config) PrefillCost(totalTokens int, avgPrompt int) OpCost {
	var sum OpCost
	pre := c.PreAttnCost(totalTokens)
	attn := c.AttnCost(totalTokens, avgPrompt/2)
	post := c.PostAttnCost(totalTokens, c.Experts)
	sum = pre.Add(attn).Add(post)
	return sum.Scale(float64(c.Layers))
}

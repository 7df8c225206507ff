package perfmodel

import (
	"fmt"
	"math"

	"moelightning/internal/roofline"
)

// Estimator evaluates the performance model for one Input. The zero
// value is not usable; construct with New.
type Estimator struct {
	In Input

	// eff resolves Input.Eff, defaulting to the analytic spec curve.
	eff roofline.EfficiencyModel
}

// New returns an Estimator after validating the input.
func New(in Input) (*Estimator, error) {
	if err := in.Model.Validate(); err != nil {
		return nil, err
	}
	if err := in.Spec.Validate(); err != nil {
		return nil, err
	}
	if err := in.Workload.Validate(); err != nil {
		return nil, err
	}
	if in.ExpertHitRatio < 0 || in.ExpertHitRatio > 1 {
		return nil, fmt.Errorf("perfmodel: expert hit ratio out of [0,1]: %f", in.ExpertHitRatio)
	}
	e := &Estimator{In: in, eff: in.Eff}
	if e.eff == nil {
		e.eff = AnalyticEfficiency(in.Spec)
	}
	return e, nil
}

// attendOp is the attention-core op class at the input's KV codec.
func (e *Estimator) attendOp() roofline.OpClass {
	if e.In.KVCodec == KVPagedInt8 {
		return roofline.OpAttendInt8
	}
	return roofline.OpAttendF32
}

// LayerTimes is the per-layer, whole-batch decode cost broken down by
// lane (Eq. 13) and by component. All values are seconds.
type LayerTimes struct {
	// Lane totals: T = max of these is Eq. 12. Disk is the §C
	// extension's third tier (zero without a disk).
	HtoD, DtoH, GPU, CPU, Disk float64

	// HtoD components.
	WeightXfer, KVXfer, HiddenXfer float64
	// DtoH components.
	QKVXfer, KVWriteback float64
	// GPU components.
	PreAttn, PostAttn, GPUAttn, AllReduce float64
	// CPU components.
	CPUAttn, CPUFFN float64
	// Disk components.
	DiskXfer float64
}

// Critical returns the bottleneck lane time, Eq. 12:
// max(comm_cpu_to_gpu, T_cpu, T_gpu) extended with the DtoH and disk
// lanes.
func (t LayerTimes) Critical() float64 {
	m := math.Max(math.Max(t.HtoD, t.DtoH), math.Max(t.GPU, t.CPU))
	return math.Max(m, t.Disk)
}

// gpuOpTime applies Eq. 8 on the GPU — max(flops/(P_peak*eff_c),
// bytes/(B_peak*eff_b)) — plus the fixed kernel dispatch overhead. The
// derating pair comes through the Efficiency seam: analytically it is
// the spec's saturation curve (reproducing NumGPUs x GPU.FLOPSAt(mu)
// exactly); calibrated, it is a measured-table lookup for the op's
// shape.
func (e *Estimator) gpuOpTime(op roofline.OpClass, shape roofline.Shape, flops, bytes float64) float64 {
	s := e.In.Spec
	eff := e.eff.Efficiency(op, shape)
	p := s.GPU.PeakFLOPS * float64(s.NumGPUs) * eff.Compute
	b := s.GPU.MemBandwidth * float64(s.NumGPUs) * eff.Bandwidth
	return math.Max(flops/p, bytes/b) + s.GPU.LaunchOverhead
}

// cpuOpTime applies Eq. 8 on the CPU through the same seam.
func (e *Estimator) cpuOpTime(op roofline.OpClass, shape roofline.Shape, flops, bytes float64) float64 {
	c := e.In.Spec.CPU
	eff := e.eff.Efficiency(op, shape)
	return math.Max(flops/(c.PeakFLOPS*eff.Compute), bytes/(c.MemBandwidth*eff.Bandwidth))
}

// linkTime is bytes over the aggregate CPU->GPU (or GPU->CPU) link.
func (e *Estimator) linkTime(bytes float64) float64 {
	return bytes / e.In.Spec.TotalLinkBandwidth()
}

// DecodeLayer computes the per-layer whole-batch decode cost at the
// given context length under policy p.
func (e *Estimator) DecodeLayer(p Policy, context int) LayerTimes {
	m := e.In.Model
	nb := float64(p.MicroBatches())
	var t LayerTimes

	// KV sparsity (§C extension): the attention kernel reads only a
	// fraction of the cached context; transfers of the hot set shrink
	// proportionally.
	context = sparseContext(context, p)

	// --- GPU lane: pre-attention and post-attention for every
	// micro-batch (CGOPipe keeps projections and FFN on GPU whenever
	// F_g; when !GPUFFN the FFN moves to the CPU and only the
	// statically-placed r_w fraction runs on GPU).
	muShape := roofline.Shape{Tokens: p.Mu}
	pre := m.PreAttnCost(p.Mu)
	t.PreAttn = nb * e.gpuOpTime(roofline.OpPreAttn, muShape, pre.FLOPs, pre.Bytes())

	post := m.PostAttnCost(p.Mu, m.ExpertsTouched(p.Mu))
	if p.GPUFFN {
		t.PostAttn = nb * e.gpuOpTime(roofline.OpFFN, muShape, post.FLOPs, post.Bytes())
	} else {
		// Static split: r_w of the FFN on GPU, the rest on CPU, no
		// weight streaming (§3.3 "static weights placement").
		t.PostAttn = nb * e.gpuOpTime(roofline.OpFFN, muShape, post.FLOPs*p.WeightsGPURatio, post.Bytes()*p.WeightsGPURatio)
		t.CPUFFN = nb * e.cpuOpTime(roofline.OpCPUFFN, muShape, post.FLOPs*(1-p.WeightsGPURatio), post.Bytes()*(1-p.WeightsGPURatio))
	}

	// --- Attention core. KV traffic is denominated at the input's KV
	// codec rate (kvcache.TokenBytes for paged caches), not the model
	// dtype's dense rows.
	attnShape := roofline.Shape{Tokens: p.Mu, Context: context, KVInt8: e.In.KVCodec == KVPagedInt8}
	attnFLOPs, attnBytes := e.attnCost(p.Mu, context)
	kvTokLayer := e.kvBytesTokenLayer()
	if p.GPUAttn {
		t.GPUAttn = nb * e.gpuOpTime(e.attendOp(), attnShape, attnFLOPs, attnBytes)
		// The (1-r_c) cold fraction of the (sparsified) KV cache
		// streams up per micro-batch.
		kvBytes := float64(p.Mu) * float64(context) * kvTokLayer
		t.KVXfer = nb * e.linkTime(kvBytes*(1-p.KVGPURatio))
		// Newly produced K/V for tokens whose cache lives on CPU write
		// back down.
		t.KVWriteback = nb * e.linkTime(float64(p.Mu)*kvTokLayer*(1-p.KVGPURatio))
	} else {
		t.CPUAttn = nb * e.cpuOpTime(roofline.OpCPUAttn, attnShape, attnFLOPs, attnBytes)
		// D1: Q,K,V offload to CPU after the QKV projection.
		t.QKVXfer = nb * e.linkTime(float64(m.QKVBytes(p.Mu)))
		// D2: attention output returns to GPU.
		t.HiddenXfer = nb * e.linkTime(float64(m.HiddenBytes(p.Mu)))
	}

	// --- Weight streaming (D3). Under the paged layout only the shared
	// attention/router prefix rides the scheduled lane; expert blocks
	// cost pager-fetch bytes per touched expert, discounted by the
	// measured warm-hit ratio.
	t.WeightXfer = e.linkTime(e.WeightStreamBytes(p))

	// --- Tensor-parallel all-reduce: two per layer (after O-projection
	// and after FFN), ring all-reduce moving 2(g-1)/g of the hidden
	// activations per micro-batch.
	if g := e.In.Spec.NumGPUs; g > 1 {
		bytes := 2 * float64(g-1) / float64(g) * float64(m.HiddenBytes(p.Mu))
		per := 2 * bytes / e.In.Spec.GPUInterconnect.SustainedBandwidth()
		t.AllReduce = nb * per
	}

	// --- Disk tier (§C extension): the r_d fraction of the layer's
	// weights streams disk -> CPU each pass, overlapped with the link.
	if p.WeightsDiskRatio > 0 && e.In.Spec.Disk.Present() {
		t.DiskXfer = p.WeightsDiskRatio * float64(m.LayerWeightBytes()) / e.In.Spec.Disk.SustainedRead()
	}

	t.GPU = t.PreAttn + t.PostAttn + t.GPUAttn + t.AllReduce
	t.CPU = t.CPUAttn + t.CPUFFN
	t.HtoD = t.WeightXfer + t.KVXfer + t.HiddenXfer
	t.DtoH = t.QKVXfer + t.KVWriteback
	t.Disk = t.DiskXfer
	return t
}

// DecodeStepTime is the ideal (fully pipelined) time for one decode step
// over the whole model at the given context: Eq. 12 summed over layers.
func (e *Estimator) DecodeStepTime(p Policy, context int) float64 {
	return e.DecodeLayer(p, context).Critical() * float64(e.In.Model.Layers)
}

// PrefillTime estimates the prefill stage for the whole batch: all
// computation on GPU, KV offloaded to CPU, weights streamed layer by
// layer, everything overlapped (§4 footnote 7), so the stage cost is the
// max lane time.
func (e *Estimator) PrefillTime(p Policy) float64 {
	m := e.In.Model
	s := e.In.AvgPrompt()
	totalTokens := p.N * s

	cost := m.PrefillCost(totalTokens, s)
	// Prefill kernels see mu*s tokens per launch — or, under the
	// engine's wave-packed prefill, all N*s live prompt tokens pack
	// into each per-layer batch.
	launch := p.Mu * s
	if e.In.Paged {
		launch = totalTokens
	}
	gpu := e.gpuOpTime(roofline.OpPrefill, roofline.Shape{Tokens: launch}, cost.FLOPs, cost.Bytes())

	weights := e.linkTime(float64(m.TotalWeightBytes()) * (1 - p.WeightsGPURatio))
	if p.WeightsDiskRatio > 0 && e.In.Spec.Disk.Present() {
		disk := p.WeightsDiskRatio * float64(m.TotalWeightBytes()) / e.In.Spec.Disk.SustainedRead()
		weights = math.Max(weights, disk)
	}
	kvDown := e.linkTime(float64(totalTokens) * e.kvBytesToken() * (1 - p.KVGPURatio))

	var allReduce float64
	if g := e.In.Spec.NumGPUs; g > 1 {
		bytes := 2 * float64(g-1) / float64(g) * float64(m.HiddenBytes(totalTokens)) * float64(m.Layers)
		allReduce = 2 * bytes / e.In.Spec.GPUInterconnect.SustainedBandwidth()
	}

	return math.Max(math.Max(gpu+allReduce, weights), kvDown)
}

// Component latencies used by the Fig. 9 ablation; all are single-layer,
// single-micro-batch times.

// CPUAttnLatency is one micro-batch of CPU attention at the context.
func (e *Estimator) CPUAttnLatency(mu, context int) float64 {
	flops, bytes := e.attnCost(mu, context)
	shape := roofline.Shape{Tokens: mu, Context: context, KVInt8: e.In.KVCodec == KVPagedInt8}
	return e.cpuOpTime(roofline.OpCPUAttn, shape, flops, bytes)
}

// sparseContext applies the policy's KV budget to a context length.
func sparseContext(context int, p Policy) int {
	c := int(float64(context) * p.EffectiveKVBudget())
	if c < 1 {
		c = 1
	}
	return c
}

// KVTransferLatency is the time to move one micro-batch's KV cache for
// one layer from CPU pinned memory to GPU, at the codec's byte rate.
func (e *Estimator) KVTransferLatency(mu, context int) float64 {
	bytes := float64(mu) * float64(context) * e.kvBytesTokenLayer()
	return e.linkTime(bytes)
}

// FFNLatency is one micro-batch of the MoE FFN kernel on GPU (weights
// already resident).
func (e *Estimator) FFNLatency(mu int) float64 {
	m := e.In.Model
	post := m.PostAttnCost(mu, m.ExpertsTouched(mu))
	return e.gpuOpTime(roofline.OpFFN, roofline.Shape{Tokens: mu}, post.FLOPs, post.Bytes())
}

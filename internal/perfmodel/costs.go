package perfmodel

import "moelightning/internal/roofline"

// TaskCosts is the price list of one decode layer: the seconds each
// task of Fig. 6's graphs takes for one micro-batch of Policy.Mu
// sequences, plus the layer's once-a-pass transfers. Its fields follow
// the schedule builder's roles, and no other decode cost formula is
// stated. DecodeLayer sums it onto Eq. 12's lanes; schedule.PlanFor
// copies it into the simulator's durations. The two compositions
// differ in two places, and both numbers are kept:
//
//   - F_g = false: Eq. 12 runs the r_w share of post-attention on the
//     GPU (PostAttnGPUShare) and the rest on the CPU (CPUFFN). No
//     builder emits a CPU-FFN task, so the simulator runs the whole of
//     it on the GPU (PostAttn).
//   - The all-reduce is its own term in LayerTimes and part of the
//     simulator's post-attention task.
type TaskCosts struct {
	PreAttn   float64 // GPU: layer norm + QKV projection
	PostAttn  float64 // GPU: O projection + router + the whole MoE FFN, weights resident
	AllReduce float64 // GPU: the layer's two ring all-reduces (zero on one GPU)
	GPUAttn   float64 // GPU: attention core, KV resident in HBM
	CPUAttn   float64 // CPU: attention core

	// F_g = false only (zero under F_g): the static split of
	// post-attention, r_w of it on the GPU and the rest on the CPU
	// (§3.3 "static weights placement").
	PostAttnGPUShare float64
	CPUFFN           float64

	QKVOff     float64 // DtoH: Q, K, V to the CPU after the projection (D1)
	HiddenLoad float64 // HtoD: attention output back to the GPU (D2)
	KVLoad     float64 // HtoD: the (1-r_c) CPU-resident share of the KV cache (D4)
	KVStore    float64 // DtoH: the new token's K/V for that share

	// Once a layer: its streamed weights over the link (D3), the same
	// bytes copied CPU -> pinned staging, and the r_d disk-resident
	// share read disk -> CPU (zero without a disk tier, §C).
	Weights, Pin, Disk float64
}

// TaskCosts prices one layer's tasks under policy p at the context.
// The policy's KV budget (§C sparsity extension) shrinks the context
// the attention kernel and the KV transfers touch, and KV bytes are at
// the input's codec rate.
func (e *Estimator) TaskCosts(p Policy, context int) TaskCosts {
	m := e.In.Model
	context = sparseContext(context, p)
	muShape := roofline.Shape{Tokens: p.Mu}
	int8KV := e.In.KVCodec == KVPagedInt8
	attnShape := roofline.Shape{Tokens: p.Mu, Context: context, KVInt8: int8KV}
	attend := roofline.OpAttendF32
	if int8KV {
		attend = roofline.OpAttendInt8
	}
	kvTokLayer := e.kvBytesTokenLayer()
	cpuResident := 1 - p.KVGPURatio

	pre := m.PreAttnCost(p.Mu)
	post := m.PostAttnCost(p.Mu, m.ExpertsTouched(p.Mu))
	attnFLOPs, attnBytes := e.attnCost(p.Mu, context)
	stream := e.WeightStreamBytes(p)
	c := TaskCosts{
		PreAttn:  e.gpuOpTime(roofline.OpPreAttn, muShape, pre.FLOPs, pre.Bytes()),
		PostAttn: e.gpuOpTime(roofline.OpFFN, muShape, post.FLOPs, post.Bytes()),
		GPUAttn:  e.gpuOpTime(attend, attnShape, attnFLOPs, attnBytes),
		CPUAttn:  e.cpuOpTime(roofline.OpCPUAttn, attnShape, attnFLOPs, attnBytes),

		QKVOff:     e.linkTime(float64(m.QKVBytes(p.Mu))),
		HiddenLoad: e.linkTime(float64(m.HiddenBytes(p.Mu))),
		KVLoad:     e.linkTime(float64(p.Mu) * float64(context) * kvTokLayer * cpuResident),
		KVStore:    e.linkTime(float64(p.Mu) * kvTokLayer * cpuResident),

		Weights: e.linkTime(stream),
		// A memcpy reads and writes DRAM, so staging sustains half
		// the DRAM bandwidth.
		Pin: stream / (e.In.Spec.CPU.SustainedBandwidth() / 2),
	}
	if !p.GPUFFN {
		r := p.WeightsGPURatio
		c.PostAttnGPUShare = e.gpuOpTime(roofline.OpFFN, muShape, post.FLOPs*r, post.Bytes()*r)
		c.CPUFFN = e.cpuOpTime(roofline.OpCPUFFN, muShape, post.FLOPs*(1-r), post.Bytes()*(1-r))
	}
	// Tensor parallelism: two ring all-reduces a layer (after the O
	// projection and after the FFN), each moving 2(g-1)/g of the
	// micro-batch's hidden activations.
	if g := e.In.Spec.NumGPUs; g > 1 {
		bytes := 2 * float64(g-1) / float64(g) * float64(m.HiddenBytes(p.Mu))
		c.AllReduce = 2 * bytes / e.In.Spec.GPUInterconnect.SustainedBandwidth()
	}
	if p.WeightsDiskRatio > 0 && e.In.Spec.Disk.Present() {
		c.Disk = p.WeightsDiskRatio * float64(m.LayerWeightBytes()) / e.In.Spec.Disk.SustainedRead()
	}
	return c
}

// WeightStreamBytes is the portion of one layer's weights that crosses
// the link each pass under policy p. Under the paged layout (Input.Paged)
// only the shared attention/router prefix is scheduled per pass;
// expert FFN blocks cost pager-fetch bytes per acquisition, discounted
// by the measured warm-hit ratio.
func (e *Estimator) WeightStreamBytes(p Policy) float64 {
	m := e.In.Model
	if e.In.Paged {
		shared := float64(m.SharedWeightBytes()) * (1 - p.WeightsGPURatio)
		if !p.GPUFFN {
			return shared
		}
		acquisitions := float64(p.MicroBatches()) * float64(m.ExpertsTouched(p.Mu))
		return shared + acquisitions*float64(m.ExpertBlockBytes())*(1-e.In.ExpertHitRatio)
	}
	if p.GPUFFN {
		return float64(m.LayerWeightBytes()) * (1 - p.WeightsGPURatio)
	}
	return float64(m.AttnWeightBytes()) * (1 - p.WeightsGPURatio)
}

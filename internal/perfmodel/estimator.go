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
// the spec's saturation curve; calibrated, it is a measured-table
// lookup for the op's shape.
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

// DecodeLayer is the per-layer whole-batch decode cost at the given
// context under policy p: each of the policy's per-micro-batch
// TaskCosts times the micro-batch count, plus the layer's transfers,
// summed onto the lane that runs it.
func (e *Estimator) DecodeLayer(p Policy, context int) LayerTimes {
	c := e.TaskCosts(p, context)
	nb := float64(p.MicroBatches())
	t := LayerTimes{
		PreAttn:    nb * c.PreAttn,
		AllReduce:  nb * c.AllReduce,
		WeightXfer: c.Weights,
		DiskXfer:   c.Disk,
	}
	if p.GPUFFN {
		t.PostAttn = nb * c.PostAttn
	} else {
		t.PostAttn = nb * c.PostAttnGPUShare
		t.CPUFFN = nb * c.CPUFFN
	}
	if p.GPUAttn {
		t.GPUAttn = nb * c.GPUAttn
		t.KVXfer = nb * c.KVLoad
		t.KVWriteback = nb * c.KVStore
	} else {
		t.CPUAttn = nb * c.CPUAttn
		t.QKVXfer = nb * c.QKVOff
		t.HiddenXfer = nb * c.HiddenLoad
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
	gpu := e.gpuOpTime(roofline.OpPrefill, roofline.Shape{Tokens: launch, KVInt8: e.In.KVCodec == KVPagedInt8}, cost.FLOPs, cost.Bytes())

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

// sparseContext applies the policy's KV budget to a context length.
func sparseContext(context int, p Policy) int {
	c := int(float64(context) * p.EffectiveKVBudget())
	if c < 1 {
		c = 1
	}
	return c
}

package perfmodel

import (
	"moelightning/internal/hardware"
	"moelightning/internal/kvcache"
	"moelightning/internal/roofline"
)

// specEfficiency is the analytic EfficiencyModel the estimator uses
// when the Input carries no measured table: the spec's published
// derating constants plus the micro-batch kernel-saturation curve,
// folded into an Eff pair relative to the spec's raw peaks. It
// reproduces the pre-seam arithmetic exactly — gpuOpTime's
// flops/(NumGPUs * GPU.FLOPSAt(mu)) becomes flops/(rawPeak *
// eff.Compute) with eff.Compute = EffFLOPS * mu/(mu+MicroBatchHalf).
type specEfficiency struct {
	spec hardware.Spec
}

// AnalyticEfficiency returns the spec-curve EfficiencyModel — the
// documented fallback a calibration table degrades to for op classes
// it has no measurements for.
func AnalyticEfficiency(spec hardware.Spec) roofline.EfficiencyModel {
	return specEfficiency{spec: spec}
}

// Efficiency maps GPU op classes to the spec's derated saturation
// curve and CPU op classes to the CPU's constant derates. The op shape
// contributes through Tokens (the saturation mu); Context does not
// change analytic efficiency.
func (a specEfficiency) Efficiency(op roofline.OpClass, s roofline.Shape) roofline.Eff {
	switch op {
	case roofline.OpCPUAttn, roofline.OpCPUFFN:
		return roofline.Eff{
			Compute:   a.spec.CPU.EffFLOPS,
			Bandwidth: a.spec.CPU.EffBandwidth,
		}
	}
	g := a.spec.GPU
	sat := 0.0
	if s.Tokens > 0 {
		m := float64(s.Tokens)
		sat = m / (m + g.MicroBatchHalf)
	}
	return roofline.Eff{
		Compute:   g.EffFLOPS * sat,
		Bandwidth: g.EffBandwidth,
	}
}

// KVCodec selects how the estimator denominates KV-cache bytes. The
// zero value keeps the analytic convention — dense rows at the model's
// KVDType — which is exact for the paper presets and for a float32
// paged cache, but overstates int8-KV traffic by 32/9: the engine's
// group-quantized codec spends kvcache.TokenBytes per token (one byte
// code plus one float32 scale per 32-value group), not dtype-width
// rows. Inputs that model the serving engine set the codec matching
// ServeConfig.KVDtype so HtoD/DtoH KV terms and cache footprints are
// denominated in the bytes that actually move.
type KVCodec int

const (
	// KVModelDType denominates KV bytes at Model.KVDType dense rows
	// (the default, matching the paper's analytic accounting).
	KVModelDType KVCodec = iota
	// KVPagedF32 denominates at the paged cache's float32 rate —
	// identical bytes to dense f32 rows, named for symmetry.
	KVPagedF32
	// KVPagedInt8 denominates at the engine's int8 group-quantized
	// rate: 9/32 of float32 when KVDim is a multiple of the quant
	// group size.
	KVPagedInt8
)

// kvBytesTokenLayer is the codec-aware KV footprint of one token in
// one layer.
func (e *Estimator) kvBytesTokenLayer() float64 {
	m := e.In.Model
	switch e.In.KVCodec {
	case KVPagedF32:
		return float64(kvcache.TokenBytes(m.KVDim(), kvcache.F32))
	case KVPagedInt8:
		return float64(kvcache.TokenBytes(m.KVDim(), kvcache.Int8))
	default:
		return m.KVBytesPerTokenLayer()
	}
}

// kvBytesToken is the codec-aware KV footprint of one token across all
// layers.
func (e *Estimator) kvBytesToken() float64 {
	return e.kvBytesTokenLayer() * float64(e.In.Model.Layers)
}

// attnCost is Model.AttnCost with the cached-context read bytes
// re-denominated at the KV codec's rate (the model embeds dense
// KVDType rows in ActBytes).
func (e *Estimator) attnCost(n, context int) (flops, bytes float64) {
	m := e.In.Model
	c := m.AttnCost(n, context)
	flops, bytes = c.FLOPs, c.Bytes()
	if delta := e.kvBytesTokenLayer() - m.KVBytesPerTokenLayer(); delta != 0 {
		bytes += float64(n) * float64(context) * delta
	}
	return flops, bytes
}

package roofline

// The Efficiency seam: every consumer of Eq. 8's
// time = max(flops/(P_peak*eff_c), bytes/(B_peak*eff_b)) obtains its
// derating pair through an EfficiencyModel instead of baking analytic
// constants into the arithmetic. Two families implement it:
//
//   - analytic models (HRM below, perfmodel's spec-curve default) that
//     derive the pair from published hardware constants; and
//   - measured tables (internal/calib's Table) that interpolate
//     efficiencies harvested from the repo's own kernel benchmarks.
//
// The seam is deliberately tiny — one method over (op kind, shape) —
// so swapping a calibrated table under the performance model never
// touches the cost arithmetic.

// OpClass names a kernel family for efficiency lookups. The perfmodel
// estimator tags every Eq. 8 evaluation with the class of the kernel
// it models; measured tables key their entries by the same names.
type OpClass string

// Kernel families the performance model distinguishes.
const (
	// OpPreAttn is the layer-norm + QKV projection GEMM batch (GPU).
	OpPreAttn OpClass = "preattn"
	// OpFFN is the O-projection + router + expert FFN GEMMs (GPU).
	OpFFN OpClass = "ffn"
	// OpAttendF32 and OpAttendInt8 are the attention core reading a
	// float32 or int8 group-quantized paged KV cache.
	OpAttendF32  OpClass = "attend-f32"
	OpAttendInt8 OpClass = "attend-int8"
	// OpCPUAttn and OpCPUFFN are the CPU-resident variants of the
	// attention core and the MoE FFN.
	OpCPUAttn OpClass = "cpu-attend"
	OpCPUFFN  OpClass = "cpu-ffn"
	// OpPrefill is the packed prefill layer pass (one QKV GEMM batch +
	// one expert-grouped FFN pass per layer chunk).
	OpPrefill OpClass = "prefill"
	// OpGEMM is a raw matmul tile — the calibration source that
	// measured tables map OpPreAttn/OpFFN/OpCPUFFN queries onto.
	OpGEMM OpClass = "gemm"
)

// Shape characterizes one op instance for efficiency lookup: the token
// count driving kernel saturation (GEMM rows, query tokens per launch)
// and, for attention ops, the cached context length being read plus
// whether the KV cache is int8 group-quantized (OpCPUAttn and OpPrefill
// carry the codec here; the GPU attend classes carry it in the class
// name).
type Shape struct {
	Tokens  int
	Context int
	KVInt8  bool
}

// Eff derates a level's peak rates for one op shape: the fraction of
// peak FLOP/s the kernel sustains (an MFU) and the fraction of peak
// memory bandwidth it streams at. Values are relative to the *raw*
// peaks of whatever level the consumer divides by; an analytic model
// folds its Eff*/saturation constants into the pair, a measured table
// returns benchmark-derived fractions (which may exceed 1 if the host
// beats its nominal rating).
type Eff struct {
	Compute   float64
	Bandwidth float64
}

// Unity is the identity derating.
var Unity = Eff{Compute: 1, Bandwidth: 1}

// EfficiencyModel supplies the derating pair for an op instance. It is
// the single seam between the performance model's cost arithmetic and
// whatever knowledge — analytic or measured — exists about how fast
// kernels actually run.
type EfficiencyModel interface {
	Efficiency(op OpClass, s Shape) Eff
}

// Efficiency implements EfficiencyModel for the HRM: its levels are
// already *sustained* rates (FromSpec folds the spec's derating factors
// into the level peaks), so every op runs at unity efficiency relative
// to them. This is the documented analytic fallback a measured table
// degrades to for shapes it has no entries for.
func (h HRM) Efficiency(OpClass, Shape) Eff { return Unity }

// Package schedule builds the task DAGs for one decode step under the
// five scheduling strategies of Fig. 6:
//
//   - CGOPipe (§4.1, Alg. 1): CPU attention launched two micro-batches
//     ahead, weights paged and interleaved with intermediate-result
//     transfers on the HtoD lane, CPU->pinned staging overlapped.
//   - S2 "pipeline w/o paged weights" (FastDecode-like): same lookahead,
//     but each layer's weights move as one monolithic transfer that
//     blocks the HtoD lane.
//   - S3 "w/o pipeline w/o paged weights" (FlexGen with CPU attention):
//     single-micro-batch lookahead, monolithic weights.
//   - S4 "w/o CPU attention" (FlexGen): attention on GPU, per-micro-
//     batch KV-cache transfers sharing the HtoD lane with monolithic
//     weights.
//   - Serial (DeepSpeed ZeRO-Inference-like): one micro-batch, KV
//     resident on GPU, weights streamed with double-buffer prefetch.
//
// Builders emit tasks in issue order, and that order is part of the
// schedule: the sim package's FIFO lanes reproduce each strategy's
// bubbles from it, and the functional engine (internal/engine) submits
// the CGOPipe graph to its lane goroutines in it. CGOPipe is defined
// here once for both: the engine builds the graph for its own shape
// (Plan.Lookahead, Plan.AttnPages, no durations), binds each task to
// work by its Role, Layer and MB, and runs it every decode step, so what
// the simulator predicts is the graph that runs — including the two
// weight-buffer reuse hazards buildLookahead emits as dependencies.
//
// The engine's graph differs from the paper's in one plan input,
// Plan.LayerFFN: the expert FFN leaves post-attention for one ffn(l)
// task per layer over the rows of every micro-batch, and the look-ahead
// stops at the layer boundary. The paper's figures model a GPU whose
// micro-batch already fills the kernel and leave it unset; on a host
// where a pass over an expert's weights costs the same at one row as at
// eight, the pass count is what a decode step pays for.
package schedule

import (
	"fmt"

	"moelightning/internal/sim"
)

// Strategy selects a pipeline schedule.
type Strategy string

// The five strategies of Fig. 6.
const (
	CGOPipe   Strategy = "cgopipe"
	Overlap   Strategy = "s2-overlap"   // pipeline w/o paged weights
	SerialCPU Strategy = "s3-serialcpu" // w/o pipeline w/o paged weights
	GPUAttn   Strategy = "s4-gpuattn"   // w/o CPU attention (FlexGen)
	Serial    Strategy = "serial"       // DeepSpeed-style
)

// Strategies lists all builders for iteration in tests and benches.
func Strategies() []Strategy {
	return []Strategy{CGOPipe, Overlap, SerialCPU, GPUAttn, Serial}
}

// Durations carries per-task durations in seconds, produced by the
// performance model for a concrete (model, hardware, workload, policy).
type Durations struct {
	PreAttn  float64 // GPU: layer-norm + QKV projection, one micro-batch
	PostAttn float64 // GPU: O projection + MoE FFN (+ TP all-reduces), one micro-batch; under Plan.LayerFFN O projection + router only
	FFN      float64 // GPU: the expert FFN of one layer over every micro-batch's rows (Plan.LayerFFN only)
	GPUAttn  float64 // GPU: attention core, one micro-batch (S4/Serial)
	CPUAttn  float64 // CPU: attention core, one micro-batch

	QKVOff     float64 // DtoH: Q,K,V offload after projection (D1)
	HiddenLoad float64 // HtoD: attention output back to GPU (D2)
	KVLoad     float64 // HtoD: one micro-batch's KV cache for one layer (D4)
	KVStore    float64 // DtoH: new token K/V write-back

	WeightPage  float64 // HtoD: one weight page (D3, paged)
	WeightWhole float64 // HtoD: one layer's streamed weights, monolithic
	PinPage     float64 // Pin: CPU -> pinned staging, one page
	PinWhole    float64 // Pin: CPU -> pinned staging, one layer

	// DiskPage / DiskWhole are the disk -> CPU read times for the
	// disk-resident weight share (zero without a disk tier, §C).
	DiskPage  float64
	DiskWhole float64
}

// Plan describes the decode step to schedule.
type Plan struct {
	Layers       int
	MicroBatches int
	D            Durations

	// Lookahead overrides how many micro-batch slots ahead the
	// CGOPipe-family strategies launch CPU attention; zero keeps the
	// strategy's own (2 in Alg. 1).
	Lookahead int
	// AttnPages is how many leading weight pages of a layer the QKV
	// projection reads, so which page pre-attention waits for; zero is
	// the first. A layer moves as MicroBatches pages with the attention
	// projections leading. Where a page is a MicroBatches-th of the
	// whole layer, as in the paper, they fit the first; the functional
	// engine pages only a layer's shared attention + router region
	// (expert blocks have their own pager), so there they span most of
	// the pages.
	AttnPages int
	// LayerFFN splits post-attention in two: post(l, j) keeps the
	// per-micro-batch part (O projection, residual, router) and one
	// ffn(l) task per layer, behind every post(l, ·), runs the expert FFN
	// over all the layer's rows, so each routed expert's weights are
	// passed over once a layer instead of once a micro-batch (MoE-Gen's
	// module-based batching). pre(l+1, j) then waits for ffn(l), and the
	// look-ahead stops at the layer boundary: no pre-attention chain of
	// layer l+1 can start before ffn(l) has written the layer's hidden
	// states. False is the paper's graph — its figures model a GPU whose
	// micro-batch already fills the kernel, where a pass over the
	// weights is not what a visit costs; the functional engine, whose
	// decode GEMMs are a few rows each, always sets it.
	LayerFFN bool
}

// Validate reports an error for unusable plans.
func (p Plan) Validate() error {
	if p.Layers <= 0 || p.MicroBatches <= 0 {
		return fmt.Errorf("schedule: non-positive plan %d layers x %d micro-batches", p.Layers, p.MicroBatches)
	}
	return nil
}

// Build emits the task DAG for one steady-state decode step: layer 1's
// weights are already resident (prefetched during the previous step) and
// the step prefetches the next step's first layer, so per-step work is
// exactly one full pass.
func Build(s Strategy, p Plan) ([]sim.Task, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch s {
	case CGOPipe:
		return buildLookahead(p, 2, true), nil
	case Overlap:
		return buildLookahead(p, 2, false), nil
	case SerialCPU:
		return buildLookahead(p, 1, false), nil
	case GPUAttn:
		return buildGPUAttn(p), nil
	case Serial:
		return buildSerial(p), nil
	}
	return nil, fmt.Errorf("schedule: unknown strategy %q", s)
}

// The roles a task can play in a decode step. With Layer and MB (both
// numbered from 1; layer Layers+1 is the next step's first layer, whose
// weights this step streams, and a role that exists once per layer
// carries MB 0) a role is the task's coordinate: the ID is arithmetic on
// the three, and whoever executes the graph binds work by them.
const (
	RolePre     sim.Role = iota // GPU: layer norm + QKV projection
	RoleQKV                     // DtoH: Q, K, V offload (D1)
	RoleCPUAttn                 // CPU: attention core
	RoleLoadH                   // HtoD: attention output back to the GPU (D2)
	RolePost                    // GPU: O projection + MoE FFN (under Plan.LayerFFN: O projection + router)
	RolePage                    // HtoD: weight page MB of layer Layer (D3)
	RolePin                     // Pin: the same page, CPU -> pinned staging
	RoleDisk                    // Disk: the page's (MB 0: the layer's) disk-resident share
	RoleWFull                   // HtoD: one layer's weights, monolithic
	RoleKVLoad                  // HtoD: one micro-batch's KV cache (D4)
	RoleKVStore                 // DtoH: the new token's K/V write-back
	RoleBlock                   // GPU: fused pre-attention + attention + post-attention
	RoleFFN                     // GPU: one layer's expert FFN over every micro-batch's rows (MB 0; Plan.LayerFFN)
)

// id is the ID of the task at (role, layer, mb), layer in 1..Layers+1
// and mb in 0..MicroBatches, so a dependency can name a task the
// builder has yet to emit.
func (p Plan) id(r sim.Role, l, j int) int {
	return (int(r)*(p.Layers+2)+l)*(p.MicroBatches+1) + j + 1
}

// builder accumulates one step's tasks in issue order.
type builder struct {
	p     Plan
	tasks []sim.Task
}

func (b *builder) add(r sim.Role, l, j int, lane sim.Lane, dur float64, kind string, deps ...int) {
	b.tasks = append(b.tasks, sim.Task{
		ID: b.p.id(r, l, j), Kind: kind, Role: r, Layer: l, MB: j,
		Lane: lane, Duration: dur, Deps: deps,
	})
}

// global index helpers: micro-batch slots are numbered 1..Layers*MB in
// execution order; slot g corresponds to (layer, mb).
func (p Plan) slot(g int) (layer, mb int) {
	return (g-1)/p.MicroBatches + 1, (g-1)%p.MicroBatches + 1
}

func (p Plan) slots() int { return p.Layers * p.MicroBatches }

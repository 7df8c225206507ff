// Package hardware describes the compute devices and interconnects that
// MoE-Lightning schedules work onto.
//
// A Spec bundles a GPU, a CPU and the link between them — the H in the
// paper's T(M, H, W, P) performance model (Tab. 1). All capacities are
// bytes, all bandwidths bytes/second and all compute rates FLOP/second,
// so the arithmetic in the roofline and performance models needs no unit
// conversions.
//
// Peak numbers are the published hardware limits; Eff* factors derate
// them to what real kernels sustain. The derating factors are the only
// "fitted" constants in the reproduction and are shared by every system
// under test, so they shift absolute numbers without changing which
// system wins.
package hardware

import "fmt"

// GPU describes a single accelerator.
type GPU struct {
	Name string
	// MemBytes is the HBM/VRAM capacity.
	MemBytes int64
	// MemBandwidth is peak HBM bandwidth in bytes/s.
	MemBandwidth float64
	// PeakFLOPS is peak dense f16 tensor throughput in FLOP/s.
	PeakFLOPS float64
	// EffBandwidth and EffFLOPS derate the peaks to sustained kernel
	// rates (0 < eff <= 1).
	EffBandwidth float64
	EffFLOPS     float64
	// MicroBatchHalf is the micro-batch size at which GEMM kernels
	// reach half of their sustained FLOPS; models small-batch kernel
	// inefficiency as p_eff = p * mu/(mu+MicroBatchHalf).
	MicroBatchHalf float64
	// LaunchOverhead is the fixed host-side cost, in seconds, of
	// dispatching one micro-batch's kernels for one block stage
	// (launch latency + synchronization). It is what makes very small
	// micro-batches expensive in practice.
	LaunchOverhead float64
}

// CPU describes the host processor and its DRAM.
type CPU struct {
	Name string
	// MemBytes is the DRAM capacity available to the inference process.
	MemBytes int64
	// MemBandwidth is peak DRAM bandwidth in bytes/s.
	MemBandwidth float64
	// PeakFLOPS is peak f32 throughput across all cores in FLOP/s.
	PeakFLOPS float64
	Cores     int
	// EffBandwidth and EffFLOPS derate peaks to sustained rates.
	EffBandwidth float64
	EffFLOPS     float64
}

// Link is the CPU<->GPU interconnect (PCIe in every paper setting).
type Link struct {
	Name string
	// Bandwidth is the peak unidirectional bandwidth in bytes/s. PCIe is
	// full duplex: HtoD and DtoH each get this independently.
	Bandwidth float64
	// Eff derates the peak to sustained DMA throughput.
	Eff float64
}

// Interconnect is the GPU<->GPU link used by tensor parallelism.
type Interconnect struct {
	Name string
	// Bandwidth is per-GPU all-reduce bandwidth in bytes/s.
	Bandwidth float64
	Eff       float64
}

// Spec is a complete single-node hardware configuration.
type Spec struct {
	Name    string
	GPU     GPU
	NumGPUs int
	CPU     CPU
	Link    Link
	// GPUInterconnect is only meaningful when NumGPUs > 1.
	GPUInterconnect Interconnect
	// Disk is the optional third memory tier (zero value = absent).
	Disk Disk
}

const gib = 1 << 30

// GiB converts gibibytes to bytes.
func GiB(n float64) int64 { return int64(n * gib) }

// GBps converts GB/s (decimal) to bytes/s.
func GBps(n float64) float64 { return n * 1e9 }

// TFLOPS converts TFLOP/s to FLOP/s.
func TFLOPS(n float64) float64 { return n * 1e12 }

// Sustained*() accessors return derated rates; every consumer of a Spec
// should use these rather than the raw peaks.

// SustainedBandwidth returns the derated HBM bandwidth.
func (g GPU) SustainedBandwidth() float64 { return g.MemBandwidth * g.EffBandwidth }

// SustainedFLOPS returns the derated peak FLOPS at large micro-batch.
func (g GPU) SustainedFLOPS() float64 { return g.PeakFLOPS * g.EffFLOPS }

// SustainedBandwidth returns the derated DRAM bandwidth.
func (c CPU) SustainedBandwidth() float64 { return c.MemBandwidth * c.EffBandwidth }

// SustainedFLOPS returns the derated CPU FLOPS.
func (c CPU) SustainedFLOPS() float64 { return c.PeakFLOPS * c.EffFLOPS }

// SustainedBandwidth returns the derated link bandwidth (one direction).
func (l Link) SustainedBandwidth() float64 { return l.Bandwidth * l.Eff }

// SustainedBandwidth returns the derated all-reduce bandwidth.
func (i Interconnect) SustainedBandwidth() float64 { return i.Bandwidth * i.Eff }

// TotalGPUMem returns the aggregate GPU memory across all GPUs.
func (s Spec) TotalGPUMem() int64 { return s.GPU.MemBytes * int64(s.NumGPUs) }

// TotalGPUBandwidth returns the aggregate HBM bandwidth across all GPUs.
func (s Spec) TotalGPUBandwidth() float64 {
	return s.GPU.SustainedBandwidth() * float64(s.NumGPUs)
}

// TotalLinkBandwidth returns the aggregate CPU->GPU bandwidth. Each GPU
// in the paper's multi-GPU settings hangs off its own PCIe root port, so
// link bandwidth scales with GPU count.
func (s Spec) TotalLinkBandwidth() float64 {
	return s.Link.SustainedBandwidth() * float64(s.NumGPUs)
}

// Validate reports an error when a spec is internally inconsistent.
func (s Spec) Validate() error {
	switch {
	case s.NumGPUs < 1:
		return fmt.Errorf("hardware: %s: NumGPUs must be >= 1, got %d", s.Name, s.NumGPUs)
	case s.GPU.MemBytes <= 0:
		return fmt.Errorf("hardware: %s: GPU memory must be positive", s.Name)
	case s.CPU.MemBytes <= 0:
		return fmt.Errorf("hardware: %s: CPU memory must be positive", s.Name)
	case s.GPU.SustainedFLOPS() <= 0 || s.CPU.SustainedFLOPS() <= 0:
		return fmt.Errorf("hardware: %s: compute rates must be positive", s.Name)
	case s.Link.SustainedBandwidth() <= 0:
		return fmt.Errorf("hardware: %s: link bandwidth must be positive", s.Name)
	case s.GPU.SustainedBandwidth() < s.Link.SustainedBandwidth():
		return fmt.Errorf("hardware: %s: GPU HBM slower than PCIe link", s.Name)
	case s.NumGPUs > 1 && s.GPUInterconnect.SustainedBandwidth() <= 0:
		return fmt.Errorf("hardware: %s: multi-GPU spec needs an interconnect", s.Name)
	}
	return nil
}

func (s Spec) String() string {
	return fmt.Sprintf("%s: %dx%s (%.0fGB) + %s (%.0fGB) over %s",
		s.Name, s.NumGPUs, s.GPU.Name, float64(s.GPU.MemBytes)/gib,
		s.CPU.Name, float64(s.CPU.MemBytes)/gib, s.Link.Name)
}

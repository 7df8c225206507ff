package hardware

import "runtime"

// Device presets matching the paper's evaluation hardware (Tab. 2 and
// Fig. 3). Peak numbers come from vendor datasheets; efficiency factors
// are calibrated once (see package comment) and shared by all systems.

// T4 is an NVIDIA T4 (16 GB GDDR6, PCIe 3.0 x16).
func T4() GPU {
	return GPU{
		Name:           "T4",
		MemBytes:       GiB(16),
		MemBandwidth:   GBps(320),
		PeakFLOPS:      TFLOPS(65), // f16 tensor core peak
		EffBandwidth:   0.75,
		EffFLOPS:       0.18,
		MicroBatchHalf: 16,
		LaunchOverhead: 200e-6,
	}
}

// L4 is an NVIDIA L4 (24 GB GDDR6, PCIe 4.0 x16). Matches Fig. 3:
// 300 GB/s HBM, 242 TFLOPS peak.
func L4() GPU {
	return GPU{
		Name:           "L4",
		MemBytes:       GiB(24),
		MemBandwidth:   GBps(300),
		PeakFLOPS:      TFLOPS(242), // f8/sparse-f16 marketing peak, per Fig. 3
		EffBandwidth:   0.80,
		EffFLOPS:       0.12, // dense f16 sustains far below the Fig. 3 peak
		MicroBatchHalf: 16,
		LaunchOverhead: 150e-6,
	}
}

// A100 is an NVIDIA A100-80G (SXM).
func A100() GPU {
	return GPU{
		Name:           "A100-80G",
		MemBytes:       GiB(80),
		MemBandwidth:   GBps(2039),
		PeakFLOPS:      TFLOPS(312),
		EffBandwidth:   0.85,
		EffFLOPS:       0.45,
		MicroBatchHalf: 32,
		LaunchOverhead: 100e-6,
	}
}

// Xeon24 is the 24-core Intel Xeon @2.3GHz with 192 GB DRAM used in
// settings S1/S2.
func Xeon24(memGiB float64) CPU {
	return CPU{
		Name:         "Xeon-24c",
		MemBytes:     GiB(memGiB),
		MemBandwidth: GBps(100),
		PeakFLOPS:    TFLOPS(1.3), // per Fig. 3
		Cores:        24,
		EffBandwidth: 0.80,
		EffFLOPS:     0.50,
	}
}

// Xeon32 is the 32-core Xeon with 416 GB DRAM used in S6-S9.
func Xeon32(memGiB float64) CPU {
	return CPU{
		Name:         "Xeon-32c",
		MemBytes:     GiB(memGiB),
		MemBandwidth: GBps(120),
		PeakFLOPS:    TFLOPS(1.7),
		Cores:        32,
		EffBandwidth: 0.80,
		EffFLOPS:     0.50,
	}
}

// PCIe3x16 is the T4's host link.
func PCIe3x16() Link {
	return Link{Name: "PCIe3x16", Bandwidth: GBps(16), Eff: 0.55}
}

// PCIe4x16 is the L4/A100 host link (Fig. 3 shows 32 GB/s).
func PCIe4x16() Link {
	return Link{Name: "PCIe4x16", Bandwidth: GBps(32), Eff: 0.55}
}

// P2PPCIe is the GPU<->GPU path for T4 boxes (no NVLink): peer transfers
// cross the PCIe switch.
func P2PPCIe() Interconnect {
	return Interconnect{Name: "P2P-PCIe", Bandwidth: GBps(16), Eff: 0.70}
}

// NVLink3 is the A100 SXM interconnect.
func NVLink3() Interconnect {
	return Interconnect{Name: "NVLink3", Bandwidth: GBps(600), Eff: 0.80}
}

// Paper evaluation settings (Tab. 2). S3-S5 are absent from the paper's
// table; we keep its numbering.

// S1 is Mixtral 8x7B on 1xT4 + 24-core Xeon, 192 GB.
func S1() Spec {
	return Spec{Name: "S1", GPU: T4(), NumGPUs: 1, CPU: Xeon24(192), Link: PCIe3x16()}
}

// S2 is Mixtral 8x7B on 1xL4 + 24-core Xeon, 192 GB.
func S2() Spec {
	return Spec{Name: "S2", GPU: L4(), NumGPUs: 1, CPU: Xeon24(192), Link: PCIe4x16()}
}

// S6 is Mixtral 8x22B on 2xT4 + 32-core Xeon, 416 GB.
func S6() Spec {
	return Spec{Name: "S6", GPU: T4(), NumGPUs: 2, CPU: Xeon32(416), Link: PCIe3x16(), GPUInterconnect: P2PPCIe()}
}

// S7 is Mixtral 8x22B on 4xT4 + 32-core Xeon, 416 GB.
func S7() Spec {
	return Spec{Name: "S7", GPU: T4(), NumGPUs: 4, CPU: Xeon32(416), Link: PCIe3x16(), GPUInterconnect: P2PPCIe()}
}

// S8 is DBRX on 2xT4 + 32-core Xeon, 416 GB.
func S8() Spec {
	return Spec{Name: "S8", GPU: T4(), NumGPUs: 2, CPU: Xeon32(416), Link: PCIe3x16(), GPUInterconnect: P2PPCIe()}
}

// S9 is DBRX on 4xT4 + 32-core Xeon, 416 GB.
func S9() Spec {
	return Spec{Name: "S9", GPU: T4(), NumGPUs: 4, CPU: Xeon32(416), Link: PCIe3x16(), GPUInterconnect: P2PPCIe()}
}

// DualA100 is the §6.3 case-study box: 2xA100-80G. CPU parameters are
// overridden by the sweep in Fig. 10.
func DualA100() Spec {
	return Spec{
		Name: "2xA100", GPU: A100(), NumGPUs: 2,
		CPU:             CPU{Name: "Xeon-base", MemBytes: GiB(1024), MemBandwidth: GBps(200), PeakFLOPS: TFLOPS(1.6), Cores: 48, EffBandwidth: 0.80, EffFLOPS: 0.50},
		Link:            Link{Name: "PCIe4x16", Bandwidth: GBps(32), Eff: 0.55},
		GPUInterconnect: NVLink3(),
	}
}

// Host describes the machine the functional engine actually runs on:
// both "GPU" and "CPU" levels are the host's core pool and DRAM, and
// the "link" is a memcpy: through the pinned staging arena for the
// shared weights, straight into a resident slot for an expert block.
// The peaks are *nominal* — cores x 64 GFLOP/s (an AVX2 core's issue
// limit: two 8-lane FMA ports at 2 GHz) and a 16 GB/s DRAM stream per
// level — deliberately what a spec sheet would claim, not what the
// kernels sustain (the AVX2 tiles issue a multiply and an add where an
// FMA would be one, and the Go loops are scalar). That gap is the
// point: predictions from this spec's analytic curve miss the real
// engine, and internal/calib's measured table is what closes it.
// Calibration tables store efficiencies relative to these raw peaks,
// so predictions only compose with inputs built on the same spec.
func Host(cores int) Spec {
	if cores < 1 {
		cores = 1
	}
	level := func(name string, mem int64) CPU {
		return CPU{
			Name: name, MemBytes: mem,
			MemBandwidth: GBps(16), PeakFLOPS: float64(cores) * 64e9,
			Cores: cores, EffBandwidth: 0.80, EffFLOPS: 0.50,
		}
	}
	cpu := level("host-pool", GiB(8))
	return Spec{
		Name: "host",
		GPU: GPU{
			Name: "host-pool", MemBytes: GiB(2),
			MemBandwidth: cpu.MemBandwidth, PeakFLOPS: cpu.PeakFLOPS,
			EffBandwidth: cpu.EffBandwidth, EffFLOPS: cpu.EffFLOPS,
			MicroBatchHalf: 2, LaunchOverhead: 2e-6,
		},
		NumGPUs: 1,
		CPU:     cpu,
		Link:    Link{Name: "memcpy", Bandwidth: GBps(8), Eff: 0.80},
	}
}

// Presets returns all named specs, for CLI lookup. "host" describes
// the local machine at runtime.NumCPU cores.
func Presets() map[string]Spec {
	return map[string]Spec{
		"S1": S1(), "S2": S2(), "S6": S6(), "S7": S7(), "S8": S8(), "S9": S9(),
		"2xA100": DualA100(),
		"host":   Host(runtime.NumCPU()),
	}
}

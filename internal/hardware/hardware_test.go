package hardware

import "testing"

func TestPresetsValidate(t *testing.T) {
	for name, spec := range Presets() {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSustainedBelowPeak(t *testing.T) {
	for name, spec := range Presets() {
		if spec.GPU.SustainedFLOPS() > spec.GPU.PeakFLOPS {
			t.Errorf("%s: sustained GPU FLOPS above peak", name)
		}
		if spec.GPU.SustainedBandwidth() > spec.GPU.MemBandwidth {
			t.Errorf("%s: sustained GPU bandwidth above peak", name)
		}
		if spec.Link.SustainedBandwidth() > spec.Link.Bandwidth {
			t.Errorf("%s: sustained link bandwidth above peak", name)
		}
	}
}

func TestMultiGPUAggregates(t *testing.T) {
	s := S7() // 4xT4
	if s.TotalGPUMem() != 4*s.GPU.MemBytes {
		t.Error("TotalGPUMem must scale with GPU count")
	}
	if s.TotalGPUBandwidth() != 4*s.GPU.SustainedBandwidth() {
		t.Error("TotalGPUBandwidth must scale with GPU count")
	}
	if s.TotalLinkBandwidth() != 4*s.Link.SustainedBandwidth() {
		t.Error("TotalLinkBandwidth must scale with GPU count")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cases := map[string]func(*Spec){
		"zero gpus":      func(s *Spec) { s.NumGPUs = 0 },
		"no gpu memory":  func(s *Spec) { s.GPU.MemBytes = 0 },
		"no cpu memory":  func(s *Spec) { s.CPU.MemBytes = 0 },
		"no link":        func(s *Spec) { s.Link.Bandwidth = 0 },
		"hbm below pcie": func(s *Spec) { s.GPU.MemBandwidth = GBps(1) },
		"no interconnect for multi-gpu": func(s *Spec) {
			s.NumGPUs = 2
			s.GPUInterconnect = Interconnect{}
		},
	}
	for name, mutate := range cases {
		s := S1()
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
}

func TestUnitHelpers(t *testing.T) {
	if GiB(1) != 1<<30 {
		t.Error("GiB")
	}
	if GBps(1) != 1e9 {
		t.Error("GBps")
	}
	if TFLOPS(1) != 1e12 {
		t.Error("TFLOPS")
	}
}

func TestPaperSettingsMatchTable2(t *testing.T) {
	// Tab. 2 geometry: S1 1xT4/192GB, S2 1xL4/192GB, S6 2xT4/416GB,
	// S7 4xT4/416GB, S8 2xT4, S9 4xT4.
	for _, tc := range []struct {
		spec    Spec
		gpus    int
		gpuName string
		cpuGiB  float64
	}{
		{S1(), 1, "T4", 192},
		{S2(), 1, "L4", 192},
		{S6(), 2, "T4", 416},
		{S7(), 4, "T4", 416},
		{S8(), 2, "T4", 416},
		{S9(), 4, "T4", 416},
	} {
		if tc.spec.NumGPUs != tc.gpus || tc.spec.GPU.Name != tc.gpuName {
			t.Errorf("%s: GPU config mismatch", tc.spec.Name)
		}
		if got := float64(tc.spec.CPU.MemBytes) / (1 << 30); got != tc.cpuGiB {
			t.Errorf("%s: CPU mem = %v GiB, want %v", tc.spec.Name, got, tc.cpuGiB)
		}
	}
}

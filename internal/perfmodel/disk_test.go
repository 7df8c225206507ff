package perfmodel

import (
	"strings"
	"testing"

	"moelightning/internal/hardware"
)

func diskInput() Input {
	in := s1Input()
	in.Spec.Disk = hardware.NVMe(512)
	in.Spec.CPU.MemBytes = hardware.GiB(48) // model (~87 GiB) cannot fit
	return in
}

func TestDiskPolicyValidation(t *testing.T) {
	bad := []Policy{
		{N: 8, Mu: 4, WeightsDiskRatio: -0.1},
		{N: 8, Mu: 4, WeightsDiskRatio: 1.1},
		{N: 8, Mu: 4, WeightsGPURatio: 0.6, WeightsDiskRatio: 0.6},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d accepted: %v", i, p)
		}
	}
}

func TestDiskFeasibility(t *testing.T) {
	e, err := New(diskInput())
	if err != nil {
		t.Fatal(err)
	}
	// Without a disk share, 48 GiB DRAM cannot hold the weights.
	if err := e.Feasible(Policy{N: 64, Mu: 32, GPUFFN: true}); err == nil {
		t.Error("model larger than DRAM accepted without disk share")
	}
	// Pushing half the weights to disk fits.
	p := Policy{N: 64, Mu: 32, GPUFFN: true, WeightsDiskRatio: 0.6}
	if err := e.Feasible(p); err != nil {
		t.Errorf("disk policy rejected: %v", err)
	}
	// A policy using disk on a diskless spec is rejected with a clear error.
	noDisk, err := New(s1Input())
	if err != nil {
		t.Fatal(err)
	}
	err = noDisk.Feasible(p)
	if err == nil || !strings.Contains(err.Error(), "disk") {
		t.Errorf("diskless spec must reject r_d > 0: %v", err)
	}
	// Exceeding the disk capacity is rejected.
	tiny := diskInput()
	tiny.Spec.Disk.Bytes = hardware.GiB(10)
	eTiny, err := New(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := eTiny.Feasible(p); err == nil {
		t.Error("disk share above capacity accepted")
	}
}

func TestDiskLaneInLayerTimes(t *testing.T) {
	e, err := New(diskInput())
	if err != nil {
		t.Fatal(err)
	}
	p := Policy{N: 64, Mu: 32, GPUFFN: true, WeightsDiskRatio: 0.5}
	lt := e.DecodeLayer(p, 512)
	if lt.DiskXfer <= 0 || lt.Disk != lt.DiskXfer {
		t.Fatalf("disk lane missing: %+v", lt)
	}
	// NVMe at ~2.8 GB/s is slower than the PCIe share it feeds, so the
	// disk lane dominates at r_d = 0.5 on this setting.
	if lt.Critical() != lt.Disk {
		t.Errorf("expected disk-bound layer, critical=%v disk=%v htod=%v", lt.Critical(), lt.Disk, lt.HtoD)
	}
	// Disk time scales linearly with the share.
	p2 := p
	p2.WeightsDiskRatio = 0.25
	if got := e.DecodeLayer(p2, 512).DiskXfer; got >= lt.DiskXfer {
		t.Errorf("halving r_d must halve disk time: %v vs %v", got, lt.DiskXfer)
	}
}

func TestDiskRelievesCPUMemory(t *testing.T) {
	e, err := New(diskInput())
	if err != nil {
		t.Fatal(err)
	}
	none := e.CPUMem(Policy{N: 64, Mu: 32, GPUFFN: true})
	half := e.CPUMem(Policy{N: 64, Mu: 32, GPUFFN: true, WeightsDiskRatio: 0.5})
	if half.Weights >= none.Weights {
		t.Errorf("disk share must reduce DRAM weights: %d vs %d", half.Weights, none.Weights)
	}
	// But the streaming buffer grows slightly.
	if half.WeightBuffer <= none.WeightBuffer {
		t.Error("disk landing buffer missing from DRAM accounting")
	}
}

func TestDiskPrefillUsesDiskBandwidth(t *testing.T) {
	e, err := New(diskInput())
	if err != nil {
		t.Fatal(err)
	}
	// At a small batch the GPU compute is cheap and the whole-model
	// disk read dominates the prefill critical path.
	with := e.PrefillTime(Policy{N: 8, Mu: 8, GPUFFN: true, WeightsDiskRatio: 1})
	without := e.PrefillTime(Policy{N: 8, Mu: 8, GPUFFN: true})
	if with <= without {
		t.Errorf("full-disk prefill (%v) must exceed DRAM prefill (%v)", with, without)
	}
}

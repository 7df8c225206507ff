package hardware

// Disk is an optional third memory tier below CPU DRAM (§C of the paper
// lists disk offloading as future work; FlexGen supports it). A zero
// Disk means the tier is absent.
type Disk struct {
	Name string
	// Bytes is the capacity available for weights.
	Bytes int64
	// ReadBandwidth is sustained sequential read in bytes/s (what
	// weight streaming sees).
	ReadBandwidth float64
	// Eff derates the peak.
	Eff float64
}

// Present reports whether the spec has a disk tier.
func (d Disk) Present() bool { return d.Bytes > 0 && d.ReadBandwidth > 0 }

// SustainedRead returns the derated read bandwidth.
func (d Disk) SustainedRead() float64 { return d.ReadBandwidth * d.Eff }

// NVMe returns a datacenter NVMe SSD (PCIe 4.0 x4 class).
func NVMe(capacityGiB float64) Disk {
	return Disk{
		Name:          "NVMe",
		Bytes:         GiB(capacityGiB),
		ReadBandwidth: GBps(3.5),
		Eff:           0.8,
	}
}

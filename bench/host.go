package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies where and on what a result was measured.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(seed int64) fingerprint {
	return fingerprint{
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
	}
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository (the driver's) reads "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(".git/" + strings.TrimPrefix(ref, "ref: "))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// procField returns the first "key : value" line of a /proc file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM), 0
// where /proc does not give it.
func peakRSSMiB() float64 {
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	return kb / 1024
}

// processCPU is the CPU time (user + system) this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTimes is the machine's cumulative CPU accounting from /proc/stat,
// in clock ticks: time the guest's CPUs spent running anything, and
// time they were runnable while the hypervisor ran someone else
// (steal). On a shared host steal moves wall-clock rates by a factor of
// three from one ten-second window to the next (README.md, "Steal");
// durations scaled by grantedShare — the granted clock — do not carry
// it. Where the host reports no steal the granted clock is the wall
// clock.
type cpuTimes struct {
	granted, stolen float64
}

// readCPUTimes reads the aggregate "cpu" line, the first of /proc/stat:
// user nice system idle iowait irq softirq steal. A host that reports
// no steal reads 0.
func readCPUTimes() cpuTimes {
	data, _ := os.ReadFile("/proc/stat") // unreadable reads as no steal: the wall clock
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var v [8]float64
	for i := range v {
		if i+1 < len(f) {
			v[i], _ = strconv.ParseFloat(f[i+1], 64)
		}
	}
	return cpuTimes{granted: v[0] + v[1] + v[2] + v[5] + v[6], stolen: v[7]}
}

// grantedShare is the share of the CPU time wanted between two readings
// that was actually granted: 1 on an unshared host.
func (b cpuTimes) grantedShare(a cpuTimes) float64 {
	g, s := b.granted-a.granted, b.stolen-a.stolen
	if g+s <= 0 {
		return 1
	}
	return g / (g + s)
}

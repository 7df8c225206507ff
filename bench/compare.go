package main

import (
	"fmt"
	"io"
	"math"
)

// values collects one metric of one workload over a file's runs of the
// given kind (end-to-end or traced).
func (rf resultFile) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range rf.Workloads[workload] {
		if v, ok := r.Metrics[metric]; ok && r.Traced == traced {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a
// share of the median; unknown (0) with fewer than two runs.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, math.Abs(median(v)))
}

// Verdicts of one (end-to-end metric, workload) row.
const (
	within     = "within"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares B's median with A's under the metric's bound: worse
// when B is worse than A by more than the bound, unresolved when either
// file's own run-to-run spread exceeds the bound (the runs cannot tell
// a change of that size from noise), within otherwise.
func judge(d metricDef, a, b []float64) (verdict string, change, noise float64) {
	ma, mb := median(a), median(b)
	change = ratio(mb-ma, math.Abs(ma)) // positive: B reads higher
	if d.Better == "higher" {
		change = -change
	}
	noise = math.Max(spread(a), spread(b))
	switch {
	case noise > d.Bound:
		return unresolved, change, noise
	case change > d.Bound:
		return worse, change, noise
	}
	return within, change, noise
}

// compareFiles prints one row per (end-to-end metric, workload) and
// fails unless every row is within its bound.
func compareFiles(out io.Writer, bf benchmarkFile, pathA, pathB string) error {
	a, err := loadJSON[resultFile](pathA)
	if err != nil {
		return err
	}
	b, err := loadJSON[resultFile](pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "A: %s  commit %s  %s x%d\nB: %s  commit %s  %s x%d\n",
		pathA, a.Fingerprint.Commit, a.Fingerprint.CPUModel, a.Fingerprint.NProc,
		pathB, b.Fingerprint.Commit, b.Fingerprint.CPUModel, b.Fingerprint.NProc)
	fmt.Fprintf(out, "%-16s %-14s %12s %12s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "spread", "bound", "verdict")
	bad := 0
	for _, w := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			va, vb := a.values(w.Name, d.Name, false), b.values(w.Name, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-16s %-14s missing from a file\n", w.Name, d.Name)
				bad++
				continue
			}
			verdict, change, noise := judge(d, va, vb)
			if verdict != within {
				bad++
			}
			fmt.Fprintf(out, "%-16s %-14s %12.4f %12.4f %+8.1f%% %7.1f%% %6.1f%%  %s\n",
				w.Name, d.Name, median(va), median(vb), 100*change, 100*noise, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are not within their bound", bad)
	}
	return nil
}

// printSummary prints every metric of a result file by name with its
// unit: the median over the end-to-end runs with their spread, then the
// traced run's layer metrics.
func printSummary(out io.Writer, bf benchmarkFile, rf resultFile) {
	fp := rf.Fingerprint
	fmt.Fprintf(out, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, %.0f s per run\n",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Commit, fp.Seed, rf.Seconds)
	for _, w := range bf.Workloads {
		runs := rf.Workloads[w.Name]
		fmt.Fprintf(out, "\n%s\n", w.Name)
		for _, r := range runs {
			for _, p := range r.Phases {
				fmt.Fprintf(out, "  seed %d traced=%-5v phase %-6s sent %4d succeeded %4d failed %d (reference: %d checked, %d differ; ttft tail p%.0f of %d; valid=%v)\n",
					r.Seed, p.Traced, p.Phase, p.Sent, p.Succeeded, p.Failed, r.Checked, r.Mismatches, 100*r.TailPercentile, r.TTFTSamples, r.Valid)
			}
		}
		for _, d := range bf.EndToEnd {
			v := rf.values(w.Name, d.Name, false)
			fmt.Fprintf(out, "  %-32s %14.4f %-10s median of %d, spread %.1f%%, bound %.0f%%\n",
				d.Name, median(v), d.Unit, len(v), 100*spread(v), 100*d.Bound)
		}
		for _, d := range bf.PerLayer {
			if v := rf.values(w.Name, d.Name, true); len(v) > 0 {
				fmt.Fprintf(out, "  %-32s %14.4f %s\n", d.Name, median(v), d.Unit)
			}
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is BENCHMARK.json: the names, units, directions and
// bounds every result is printed and compared by. The program computes
// values by name and takes everything else from this file, so the
// contract has one copy.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadJSON reads one JSON document into a T.
func loadJSON[T any](path string) (T, error) {
	var v T
	data, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runResult is one run of one workload: the line it prints last plus
// what the result file keeps beside it.
type runResult struct {
	resultLine
	detail
}

// detail is not part of the printed line.
type detail struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Valid is false when the load generator ran late (late_p95 over
	// lateLimit): the run is then invalid, not slow.
	Valid bool `json:"valid"`
	// Checked and Mismatches are the reference check's sample size and
	// how many of the sample differed.
	Checked    int `json:"reference_checked"`
	Mismatches int `json:"reference_mismatches"`
	// TailPercentile is the percentile ttft_p95_ms reports (0.95 once
	// there are 200 samples) and TTFTSamples the sample count behind it.
	TailPercentile float64      `json:"ttft_tail_percentile"`
	TTFTSamples    int          `json:"ttft_samples"`
	Phases         []phaseCount `json:"phases"`
	TraceFile      string       `json:"trace_file,omitempty"`
}

// named pairs computed values with the units BENCHMARK.json gives them;
// a metric the file lists and the run did not compute is a bug.
func named(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// resultFile is what one full invocation writes: every workload's runs
// under one host fingerprint.
type resultFile struct {
	Fingerprint fingerprint            `json:"fingerprint"`
	Seconds     float64                `json:"seconds"`
	Workloads   map[string][]runResult `json:"workloads"`
}

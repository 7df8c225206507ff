// Package calib closes the loop between the repo's measured kernels
// and its analytic performance model: it harvests wall-clock
// efficiencies from the engine's own micro-benchmarks into a
// schema-versioned Table that implements the roofline.EfficiencyModel
// seam, so policy search optimizes the machine that actually exists
// instead of a spec sheet.
//
// # Table schema
//
// A Table (Schema "moelightning/calib/v1") is stored in one file
// format only: embedded as the "table" of the calibration report
// `moebench -exp calib -json` writes (BenchSchema; WriteBench, read
// back by LoadBench and Load). It records the raw reference peaks it
// was measured against (the hardware.Host spec's nominal FLOP/s and
// bytes/s) plus a flat list of entries. Each Entry is one benchmarked
// op instance keyed by op kind and shape bucket:
//
//   - "gemm" entries bucket by Tokens (GEMM rows) and calibrate every
//     projection/FFN query (OpPreAttn, OpFFN, OpCPUFFN);
//   - "attend-f32" / "attend-int8" entries bucket by Context and
//     calibrate the attention core at either KV codec (OpAttendF32,
//     OpAttendInt8, and OpCPUAttn via Shape.KVInt8);
//   - "prefill" / "prefill-int8" entries bucket by Tokens (wave prompt
//     tokens) and calibrate OpPrefill from whole packed-prefill passes
//     at either KV codec (via Shape.KVInt8: an int8 pass also quantizes
//     every appended K/V row).
//
// Whole pipelined decode steps are measured too, but kept as no entry:
// Build folds the warm step into ScheduleEffDecode — the ratio of the
// composed per-op prediction to the measured step at a reference
// shape — which Efficiency applies multiplicatively to every
// decode-phase class, so scheduling overhead the per-op benches cannot
// see (lane barriers, sampling, the LM head) is charged once, honestly.
// A table written with "decode-step" entries still loads: no query
// reads that kind.
//
// An entry's efficiencies are derived with the same FLOP/byte
// accounting the estimator charges (model.*Cost), so at a measured
// shape the estimator's Eq. 8 time reproduces the measured seconds
// exactly; between buckets the pair interpolates linearly in
// log2(shape key), clamped at the grid ends — deterministic for a
// given table.
//
// # Fallback
//
// A query whose op kind has no entries falls back to the analytic
// model the Table was loaded with (perfmodel.AnalyticEfficiency of the
// host spec; roofline.HRM's unity implementation serves the same role
// for pre-derated levels). Fallback is per-op-kind, never partial: a
// kind is either calibrated (>= 1 entry) or analytic.
package calib

import (
	"fmt"
	"math"
	"sort"

	"moelightning/internal/roofline"
)

// Schema versions the table's JSON layout.
const Schema = "moelightning/calib/v1"

// ErrorBand is the stated relative-error band the calibrated model is
// held to on the bench model's standing scenarios (|predicted -
// measured| / measured <= ErrorBand), per the regression test. The
// analytic host model exceeds it where its spec curve is wrong by
// structure: the prompt phase and the int8 KV codec.
const ErrorBand = 0.25

// Entry is one benchmarked op instance.
type Entry struct {
	// Op is the measured kernel family ("gemm", "attend-f32",
	// "attend-int8", "prefill", "prefill-int8").
	Op string `json:"op"`
	// Tokens and Context are the shape-bucket key (Context only for
	// attention entries).
	Tokens  int `json:"tokens"`
	Context int `json:"context,omitempty"`
	// FLOPs and Bytes are the model-charged work for one instance;
	// Seconds the measured wall time per instance.
	FLOPs   float64 `json:"flops"`
	Bytes   float64 `json:"bytes"`
	Seconds float64 `json:"seconds"`
	// EffCompute and EffBandwidth are the derived derating pair
	// relative to the table's reference peaks.
	EffCompute   float64 `json:"eff_compute"`
	EffBandwidth float64 `json:"eff_bandwidth"`
}

// Table is a calibration run's harvest. It implements
// roofline.EfficiencyModel.
type Table struct {
	Schema string `json:"schema"`
	// Host names the spec the efficiencies are relative to; PeakFLOPS
	// and PeakBandwidth are that spec's raw (underated) aggregate
	// peaks. Predictions only compose with perfmodel Inputs whose Spec
	// carries the same raw peaks.
	Host          string  `json:"host"`
	Cores         int     `json:"cores"`
	PeakFLOPS     float64 `json:"peak_flops"`
	PeakBandwidth float64 `json:"peak_bandwidth"`
	// ExpertHitRatio is the warm fraction of expert-block acquisitions
	// measured over the steady-state decode reference.
	ExpertHitRatio float64 `json:"expert_hit_ratio"`
	// ScheduleEffDecode scales every decode-phase op efficiency so the
	// composed per-op prediction matches the measured whole step at
	// the reference shape (1 = no correction).
	ScheduleEffDecode float64 `json:"schedule_eff_decode"`
	Entries           []Entry `json:"entries"`

	// fallback answers queries for uncalibrated op kinds; set by
	// Build/Load, not serialized.
	fallback roofline.EfficiencyModel
}

// WithFallback sets the analytic model uncalibrated op kinds degrade
// to and returns the table for chaining.
func (t *Table) WithFallback(m roofline.EfficiencyModel) *Table {
	t.fallback = m
	return t
}

// Validate checks schema, peaks and entry well-formedness.
func (t *Table) Validate() error {
	if t.Schema != Schema {
		return fmt.Errorf("calib: schema %q, want %q", t.Schema, Schema)
	}
	if t.PeakFLOPS <= 0 || t.PeakBandwidth <= 0 {
		return fmt.Errorf("calib: non-positive reference peaks")
	}
	if t.ExpertHitRatio < 0 || t.ExpertHitRatio > 1 {
		return fmt.Errorf("calib: expert hit ratio %f out of [0,1]", t.ExpertHitRatio)
	}
	if t.ScheduleEffDecode < 0 {
		return fmt.Errorf("calib: negative decode schedule efficiency")
	}
	if len(t.Entries) == 0 {
		return fmt.Errorf("calib: empty table")
	}
	for _, e := range t.Entries {
		if e.Op == "" || e.Seconds <= 0 || e.EffCompute <= 0 || e.EffBandwidth <= 0 {
			return fmt.Errorf("calib: malformed entry %+v", e)
		}
	}
	return nil
}

// scheduleFactor is the stage correction for an op class.
func (t *Table) scheduleFactor(op roofline.OpClass) float64 {
	switch op {
	case roofline.OpPrefill:
		return 1 // prefill entries are whole-pass measurements already
	}
	if t.ScheduleEffDecode > 0 {
		return t.ScheduleEffDecode
	}
	return 1
}

// entryOp maps an estimator op class (+ shape) to the stored kind that
// calibrates it, or "" for kinds answered by the fallback.
func entryOp(op roofline.OpClass, s roofline.Shape) string {
	switch op {
	case roofline.OpPreAttn, roofline.OpFFN, roofline.OpCPUFFN, roofline.OpGEMM:
		return "gemm"
	case roofline.OpAttendF32:
		return "attend-f32"
	case roofline.OpAttendInt8:
		return "attend-int8"
	case roofline.OpCPUAttn:
		if s.KVInt8 {
			return "attend-int8"
		}
		return "attend-f32"
	case roofline.OpPrefill:
		if s.KVInt8 {
			return "prefill-int8"
		}
		return "prefill"
	}
	return ""
}

// shapeKey is the bucket axis for a stored kind.
func shapeKey(kind string, s roofline.Shape) int {
	if kind == "attend-f32" || kind == "attend-int8" {
		return s.Context
	}
	return s.Tokens
}

// Efficiency implements roofline.EfficiencyModel: deterministic
// piecewise-linear interpolation in log2(shape key) between the
// op kind's bucket entries, clamped at the ends, falling back to the
// analytic model for uncalibrated kinds.
func (t *Table) Efficiency(op roofline.OpClass, s roofline.Shape) roofline.Eff {
	kind := entryOp(op, s)
	ents := t.entriesOf(kind)
	if kind == "" || len(ents) == 0 {
		if t.fallback != nil {
			return t.fallback.Efficiency(op, s)
		}
		return roofline.Unity
	}
	f := t.scheduleFactor(op)
	key := shapeKey(kind, s)
	if key < 1 {
		key = 1
	}
	lo, hi := bracket(ents, kind, key)
	if lo == hi {
		return scaleEff(ents[lo], f)
	}
	kLo, kHi := float64(shapeKeyOf(ents[lo], kind)), float64(shapeKeyOf(ents[hi], kind))
	w := (math.Log2(float64(key)) - math.Log2(kLo)) / (math.Log2(kHi) - math.Log2(kLo))
	a, b := ents[lo], ents[hi]
	return roofline.Eff{
		Compute:   f * ((1-w)*a.EffCompute + w*b.EffCompute),
		Bandwidth: f * ((1-w)*a.EffBandwidth + w*b.EffBandwidth),
	}
}

func scaleEff(e Entry, f float64) roofline.Eff {
	return roofline.Eff{Compute: f * e.EffCompute, Bandwidth: f * e.EffBandwidth}
}

func shapeKeyOf(e Entry, kind string) int {
	if kind == "attend-f32" || kind == "attend-int8" {
		return e.Context
	}
	return e.Tokens
}

// entriesOf returns the kind's entries sorted ascending by bucket key.
func (t *Table) entriesOf(kind string) []Entry {
	var out []Entry
	for _, e := range t.Entries {
		if e.Op == kind {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return shapeKeyOf(out[i], kind) < shapeKeyOf(out[j], kind)
	})
	return out
}

// bracket finds the adjacent bucket indices surrounding key (equal
// indices at the grid ends or on an exact hit).
func bracket(ents []Entry, kind string, key int) (lo, hi int) {
	if key <= shapeKeyOf(ents[0], kind) {
		return 0, 0
	}
	last := len(ents) - 1
	if key >= shapeKeyOf(ents[last], kind) {
		return last, last
	}
	for i := 1; i <= last; i++ {
		k := shapeKeyOf(ents[i], kind)
		if key == k {
			return i, i
		}
		if key < k {
			return i - 1, i
		}
	}
	return last, last
}

// Load reads the calibration report `moebench -exp calib -json` writes
// (BenchSchema, see LoadBench) and returns its embedded table with the
// given fallback attached.
func Load(path string, fallback roofline.EfficiencyModel) (*Table, error) {
	r, err := LoadBench(path)
	if err != nil {
		return nil, err
	}
	return r.Table.WithFallback(fallback), nil
}

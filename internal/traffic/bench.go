package traffic

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"moelightning/internal/metrics"
)

// BenchSchema identifies the BENCH_serve.json wire format; bump on any
// incompatible change so trajectory tooling can reject stale files.
const BenchSchema = "moelightning/bench-serve/v1"

// LatencyMS is a latency summary in milliseconds — the unit every
// serving table in the paper reports.
type LatencyMS struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// SummarizeLatency folds a histogram into a LatencyMS. A nil or empty
// histogram summarizes to zeros.
func SummarizeLatency(h *metrics.Histogram) LatencyMS {
	if h == nil || h.Count() == 0 {
		return LatencyMS{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencyMS{
		Mean: ms(h.Mean()),
		P50:  ms(h.Quantile(0.50)),
		P95:  ms(h.Quantile(0.95)),
		P99:  ms(h.Quantile(0.99)),
	}
}

// SweepPoint is one operating point of a saturation sweep: the scenario
// at one arrival-rate multiple, measured end to end against a fresh
// server.
type SweepPoint struct {
	Scale            float64   `json:"scale"`
	OfferedRPS       float64   `json:"offered_rps"`
	Requests         int       `json:"requests"`
	Completed        int       `json:"completed"`
	SLORequests      int       `json:"slo_requests"`
	SLOMet           int       `json:"slo_met"`
	SLOMissTTFT      int       `json:"slo_miss_ttft"`
	SLOMissTPOT      int       `json:"slo_miss_tpot"`
	GoodputRPS       float64   `json:"goodput_rps"`
	GoodTokensPerSec float64   `json:"good_tokens_per_sec"`
	TTFT             LatencyMS `json:"ttft_ms"`
	TPOT             LatencyMS `json:"tpot_ms"`
	Deferred         int       `json:"deferred"`
	MaxDeferrals     int       `json:"max_deferrals"`
	ElapsedSeconds   float64   `json:"elapsed_seconds"`
	// Shared-prefix KV reuse at this point: prompt tokens mapped from
	// resident prefixes instead of prefilled, and copy-on-write block
	// copies on divergence.
	PrefixHitTokens int   `json:"prefix_hit_tokens"`
	CowCopies       int64 `json:"cow_copies"`
}

// BenchScenario is one scenario's sweep in a BenchResult.
type BenchScenario struct {
	Name             string       `json:"name"`
	Arrival          string       `json:"arrival"`
	RequestsPerPoint int          `json:"requests_per_point"`
	Points           []SweepPoint `json:"points"`
	// Knee indexes Points at the saturation knee — the lowest offered
	// load achieving (within tolerance) the sweep's peak goodput.
	Knee int `json:"knee"`
}

// BenchResult is the standing serve benchmark: the full output of
// `moebench -exp slo`, written to BENCH_serve.json.
type BenchResult struct {
	Schema        string          `json:"schema"`
	GeneratedUnix int64           `json:"generated_unix"`
	Model         string          `json:"model"`
	KVDtype       string          `json:"kv_dtype"`
	Admission     string          `json:"admission"`
	Seed          int64           `json:"seed"`
	Scenarios     []BenchScenario `json:"scenarios"`
}

// Validate checks a BenchResult is structurally sound: the schema
// matches, every scenario carries a >= 3-point sweep with its knee in
// range, and every point's percentiles are monotone with sane counts.
func (b BenchResult) Validate() error {
	if b.Schema != BenchSchema {
		return fmt.Errorf("traffic: bench schema %q, want %q", b.Schema, BenchSchema)
	}
	if len(b.Scenarios) == 0 {
		return fmt.Errorf("traffic: bench has no scenarios")
	}
	for _, sc := range b.Scenarios {
		if len(sc.Points) < 3 {
			return fmt.Errorf("traffic: scenario %s: %d sweep points, want >= 3", sc.Name, len(sc.Points))
		}
		if sc.Knee < 0 || sc.Knee >= len(sc.Points) {
			return fmt.Errorf("traffic: scenario %s: knee %d out of range", sc.Name, sc.Knee)
		}
		for i, p := range sc.Points {
			if p.Requests <= 0 || p.Completed < 0 || p.Completed > p.Requests {
				return fmt.Errorf("traffic: scenario %s point %d: bad counts (%d/%d)", sc.Name, i, p.Completed, p.Requests)
			}
			if p.SLOMet > p.SLORequests {
				return fmt.Errorf("traffic: scenario %s point %d: slo_met %d > slo_requests %d", sc.Name, i, p.SLOMet, p.SLORequests)
			}
			for _, l := range []LatencyMS{p.TTFT, p.TPOT} {
				if l.P50 > l.P95 || l.P95 > l.P99 || l.P50 < 0 {
					return fmt.Errorf("traffic: scenario %s point %d: non-monotone percentiles %+v", sc.Name, i, l)
				}
			}
		}
	}
	return nil
}

// FindKnee locates the saturation knee of a sweep: the first (lowest
// offered load) point whose goodput is within 5% of the sweep's peak.
// Past the knee, extra offered load buys queueing delay, not goodput.
// Returns 0 for an empty sweep.
func FindKnee(points []SweepPoint) int {
	best := 0.0
	for _, p := range points {
		if p.GoodputRPS > best {
			best = p.GoodputRPS
		}
	}
	for i, p := range points {
		if p.GoodputRPS >= 0.95*best {
			return i
		}
	}
	return 0
}

// WriteJSON writes v as indented JSON to path (shared by the serve
// experiment's -json output and WriteBench).
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteBench validates and writes the standing serve benchmark.
func WriteBench(path string, b BenchResult) error {
	if err := b.Validate(); err != nil {
		return err
	}
	return WriteJSON(path, b)
}

// ReadBench loads and validates a BENCH_serve.json.
func ReadBench(path string) (BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchResult{}, err
	}
	var b BenchResult
	if err := json.Unmarshal(data, &b); err != nil {
		return BenchResult{}, err
	}
	return b, b.Validate()
}

package traffic

import (
	"encoding/json"
	"testing"

	"moelightning/internal/engine"
)

// TestSweepPointSLOKeys: the SLO tally a sweep point embeds keeps its
// BENCH_serve.json keys.
func TestSweepPointSLOKeys(t *testing.T) {
	p := SweepPoint{SLOTally: engine.SLOTally{SLORequests: 4, SLOMet: 1, SLOMissTTFT: 2, SLOMissTPOT: 3}}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{"slo_requests": 4, "slo_met": 1, "slo_miss_ttft": 2, "slo_miss_tpot": 3} {
		if got[key] != want {
			t.Errorf("%s = %v, want %v in %s", key, got[key], want, data)
		}
	}
}

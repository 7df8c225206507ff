package chaos

import (
	"testing"
	"time"
)

// TestChaosRunInvariants is the seeded chaos scenario at test scale: a
// bursty trace with transient expert-fetch faults and forced KV-pool
// exhaustions played fast against a live server, once as is and once
// with latency stalls longer than the wave deadline, so waves end by
// WaveTimeout while others complete around them. Run returns an error
// whenever a standing invariant breaks, so the assertion surface is
// simply err == nil plus sanity on the report's bookkeeping. In the
// faults case requests must also have mapped prompt prefixes earlier
// waves left cached, so the KV faults strike a pool holding cached
// blocks.
func TestChaosRunInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run plays a wall-clock trace")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{name: "faults"},
		{name: "stalls", cfg: Config{
			StallEvery:  20,
			StallFor:    300 * time.Millisecond * timeScale,
			WaveTimeout: 60 * time.Millisecond * timeScale,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Requests, cfg.Seed, cfg.Speed = 48, 7, 32
			// High enough that fetch faults demonstrably occur at this
			// trace length, low enough that most requests survive.
			cfg.ExpertFaultRate, cfg.KVExhaustions = 0.05, 2
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("chaos run: %v (report %+v)", err, rep)
			}
			if rep.Submitted+rep.Shed != rep.Requests {
				t.Errorf("dispositions leak: submitted %d + shed %d != requests %d",
					rep.Submitted, rep.Shed, rep.Requests)
			}
			// Deadline drops are a subset of Failed, not a fourth disposition.
			if rep.Submitted != rep.Completed+rep.Canceled+rep.Failed {
				t.Errorf("admitted dispositions leak: %d submitted vs %d completed + %d canceled + %d failed",
					rep.Submitted, rep.Completed, rep.Canceled, rep.Failed)
			}
			if rep.SurvivorsChecked == 0 {
				t.Error("no survivors checked: the scenario is all faults, proving nothing about bit-identity")
			}
			if rep.FaultRetries == 0 && rep.FaultFailures == 0 {
				t.Error("no expert-fetch faults fired: the scenario exercised nothing")
			}
			if cfg.StallEvery == 0 && rep.RetainedHitTokens == 0 {
				t.Error("no prompt prefix served across waves: the KV faults never met a cached block")
			}
			if cfg.StallEvery > 0 {
				t.Logf("%d stalls fired at %d stall points; %d waves timed out", rep.Stalls, rep.StallPoints, rep.WaveTimeouts)
				if rep.Stalls == 0 {
					t.Errorf("no stall fired at %d stall points: the stall scenario exercised nothing", rep.StallPoints)
				}
			}
			if cfg.StallEvery > 0 && rep.WaveTimeouts == 0 {
				t.Errorf("no wave ran past its deadline: the stall scenario exercised nothing (%d stalls fired at %d stall points)",
					rep.Stalls, rep.StallPoints)
			}
			if !rep.CloseWithinBound {
				t.Error("close overran its bound")
			}
		})
	}
}

package traffic

import (
	"fmt"

	"moelightning/internal/engine"
)

// ServerHooks is what a saturation sweep needs from a live server:
// submission, end-of-run stats, and teardown. cmd/moebench builds one
// per sweep point around a fresh engine.Server.
type ServerHooks struct {
	Submit SubmitFunc
	Stats  func() engine.ServerStats
	Close  func() error
}

// Factory builds a fresh server for one sweep point. scale is the
// arrival-rate multiple the point runs at, in case the harness wants to
// provision differently along the sweep (the standing benchmark keeps
// the server fixed and varies only load).
type Factory func(scale float64) (ServerHooks, error)

// Sweep runs scenario scn at each arrival-rate multiple in scales
// against a fresh server per point, and returns one SweepPoint per
// scale. Each point regenerates the trace from the same seed after
// scaling, so the request population is identical across points — only
// the arrival clock compresses. Close runs after the trace drains, so
// Stats sees the complete run.
func Sweep(factory Factory, scn Scenario, seed int64, scales []float64, runCfg RunConfig) ([]SweepPoint, error) {
	if factory == nil {
		return nil, fmt.Errorf("traffic: Sweep needs a server factory")
	}
	if len(scales) == 0 {
		return nil, fmt.Errorf("traffic: Sweep needs at least one scale")
	}
	points := make([]SweepPoint, 0, len(scales))
	for _, scale := range scales {
		trace, err := scn.Scale(scale).Generate(seed)
		if err != nil {
			return nil, err
		}
		hooks, err := factory(scale)
		if err != nil {
			return nil, err
		}
		rep, runErr := Run(hooks.Submit, trace, runCfg)
		var stats engine.ServerStats
		if hooks.Stats != nil {
			stats = hooks.Stats()
		}
		if hooks.Close != nil {
			if cerr := hooks.Close(); cerr != nil && runErr == nil {
				runErr = cerr
			}
		}
		if runErr != nil {
			return nil, fmt.Errorf("traffic: sweep at scale %v: %w", scale, runErr)
		}
		points = append(points, SweepPoint{
			Scale:            scale,
			OfferedRPS:       rep.OfferedRPS,
			Requests:         rep.Requests,
			Completed:        rep.Completed,
			SLOTally:         rep.SLOTally,
			GoodputRPS:       rep.GoodputRPS,
			GoodTokensPerSec: rep.GoodTokensPerSecond,
			TTFT:             rep.TTFT,
			TPOT:             rep.TPOT,
			Deferred:         stats.Deferred,
			MaxDeferrals:     stats.MaxDeferrals,
			ElapsedSeconds:   rep.Elapsed.Seconds(),
			PrefixHitTokens:  stats.PrefixHitTokens,
			CowCopies:        stats.CowCopies,
		})
	}
	return points, nil
}

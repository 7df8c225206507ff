package main

import (
	"moelightning/internal/kvcache"
)

const mib = 1 << 20

// ladderResult is one rung of the online ladder as the client saw it.
type ladderResult struct {
	rps float64
	c   clientStats
}

// holds reports whether the rung met the limits without a growing
// backlog: at least nine tenths of the requests sent met both limits,
// and no more were outstanding at the last arrival than at the middle
// one. A backlog within one wave's worth of requests is not growth.
func (l ladderResult) holds() bool {
	return l.c.metFrac >= 0.90 && l.c.backlogEnd <= max(l.c.backlogMid, waveSeqs)
}

// sloRate is the highest rung that holds, 0 if none does.
func sloRate(rungs []ladderResult) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.holds() && r.rps > best {
			best = r.rps
		}
	}
	return best
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stepStats splits a driven wave's decode steps into the first (cold
// experts) and the rest.
func stepStats(steps []float64) (cold, p50, p95 float64) {
	cold = steps[0]
	warm := sorted(steps[1:])
	if len(warm) == 0 {
		return cold, cold, cold
	}
	return cold, percentile(warm, 0.5), percentile(warm, tailPercentile(len(warm), 0.95))
}

// tracedRun is everything the traced run measured, before it is
// flattened into named layer metrics.
type tracedRun struct {
	s        spec
	main     window // the traced window of the workload itself
	samples  []statSample
	probes   map[string]float64
	wave     waveTimes
	lone     waveTimes
	rungs    []ladderResult // online only: the ladder, bottom up
	overhead float64
	sent     int // every window of the run
	failed   int
}

// layerMetrics names every per-layer number of a traced run. Ladder
// rows read 0 on the closed workloads, which have no ladder.
func (t tracedRun) layerMetrics() map[string]float64 {
	out := make(map[string]float64, 64)
	for k, v := range t.probes {
		out[k] = v
	}
	m, e, c := benchModel(), t.main.engine, t.main.client()

	poolTokens := (waveSeqs*t.s.maxContext + kvcache.DefaultBlockTokens - 1) / kvcache.DefaultBlockTokens * kvcache.DefaultBlockTokens
	out["kvcache.reserved_mb"] = float64(poolTokens*m.Layers*kvcache.TokenBytes(m.KVDim(), t.s.kv)) / mib
	out["kvcache.cow_copies"] = float64(e.cowCopies)

	out["paging.expert_hit_ratio"] = ratio(float64(e.hits), float64(e.hits+e.misses))
	out["paging.fetched_mb_per_ktok"] = ratio(float64(e.weightBytes)/mib, float64(e.genTokens)/1000)

	out["batching.deferred_frac"] = ratio(float64(e.deferred), float64(e.submitted))

	cold, p50, p95 := stepStats(t.wave.steps)
	_, lone, _ := stepStats(t.lone.steps)
	out["engine.wave_build_ms"] = ms(t.wave.build)
	out["engine.wave_close_ms"] = ms(t.wave.close)
	out["engine.prefill_tok_s"] = t.wave.prefillTokS
	out["engine.step_ms_p50"] = p50
	out["engine.step_ms_p95"] = p95
	out["engine.step1_cold_ms"] = cold
	out["engine.lone_step_ms"] = lone
	out["engine.htod_mb_per_step"] = t.wave.htodPerStep / mib
	out["engine.gpu_kernels_per_step"] = t.wave.kernelsStep
	out["engine.prefill_share"] = ratio(e.prefill.Seconds(), e.busy.Seconds())
	out["engine.busy_frac"] = ratio(e.busy.Seconds(), t.main.wall.Seconds())
	out["engine.waves"] = float64(e.waves)
	out["engine.reqs_per_wave"] = ratio(float64(e.completed+e.failed), float64(e.waves))
	out["engine.prefix_hit_ratio"] = ratio(float64(e.prefixHitTokens), float64(e.prefixHitTokens+e.prefillTokens))
	depthSum, depthMax := 0, 0
	for _, s := range t.samples {
		depthSum += s.Queued
		depthMax = max(depthMax, s.Queued)
	}
	out["engine.queue_depth_mean"] = ratio(float64(depthSum), float64(len(t.samples)))
	out["engine.queue_depth_max"] = float64(depthMax)
	out["engine.tpot_p50_ms"] = c.tpotP50
	out["engine.tpot_p95_ms"] = c.tpotP95

	out["traffic.late_p95_ms"] = c.lateP95
	out["traffic.late_max_ms"] = c.lateMax
	var low, high clientStats
	if len(t.rungs) == len(ladder) {
		low, high = t.rungs[0].c, t.rungs[len(t.rungs)-1].c
	}
	out["traffic.low.ttft_p50_ms"] = low.ttftP50
	out["traffic.low.slo_met_frac"] = low.metFrac
	out["traffic.high.ttft_p95_ms"] = high.ttftTail
	out["traffic.high.slo_met_frac"] = high.metFrac
	out["traffic.high.backlog_end"] = float64(high.backlogEnd)
	out["traffic.slo_rate_rps"] = sloRate(t.rungs)

	out["runtime.allocs_per_gen_token"] = ratio(float64(t.main.mem.mallocs), float64(e.genTokens))
	out["runtime.gc_pause_ms"] = ms(t.main.mem.gcPause)
	out["runtime.heap_inuse_mb"] = float64(t.main.mem.heapInuse) / mib

	out["gen_tok_s_wall"] = c.genTokSWall
	out["ttft_p50_ms"] = c.ttftP50
	out["ttft_p95_ms"] = c.ttftTail
	out["slo_met_frac"] = c.metFrac
	out["host.granted_share"] = t.main.share

	out["trace.overhead_frac"] = t.overhead
	out["failed_frac"] = ratio(float64(t.failed), float64(t.sent))
	return out
}

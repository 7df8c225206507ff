package main

import (
	"fmt"
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/memory"
	"moelightning/internal/workload"
)

// drivenGenLen caps the generation of a driven wave: enough decode
// steps for a p95, short enough to leave the traced run its time.
const drivenGenLen = 32

// waveTimes is what driving one wave by hand shows: the cost of
// building and closing the per-wave engine, the prompt phase, and the
// decode steps marked by the StepSink.
type waveTimes struct {
	build, close time.Duration
	prefillTokS  float64
	steps        []float64 // ms per decode step, in order; steps[0] starts on cold experts
	htodPerStep  float64   // bytes, exact count from Pipeline.Counters
	kernelsStep  float64   // GPU-lane kernels per step, exact count
}

// driveWave runs reqs as one wave through engine.NewPipeline /
// GenerateStream / Close — the calls the server makes for every wave —
// over arenas sized the way the server sizes them, and records the
// phases as spans under one `wave` parent.
func driveWave(tr *tracer, s spec, reqs []workload.Request) (waveTimes, error) {
	var wt waveTimes
	w, err := benchWeights()
	if err != nil {
		return wt, err
	}
	m := benchModel()
	cfg := s.serverConfig()
	layout := w.Layout
	weightFloats := 2*layout.LayerFloats() + layout.ResidencySlots(cfg.ExpertResidencyBytes)*layout.ExpertFloats() + 1<<20
	gpu, pinned := memory.NewArena("bench-gpu", weightFloats), memory.NewArena("bench-pinned", weightFloats)
	cache := memory.NewArena("bench-kv", len(reqs)*s.maxContext*m.Layers*2*m.KVDim()+1<<20)

	genLen := min(s.genLen, drivenGenLen)
	begin := time.Now()
	parent := tr.add("wave", 0, 0, begin, begin)
	pl, err := engine.NewPipeline(w, gpu, pinned, cache, len(reqs), engine.Config{
		MicroBatch:           microBatchSize,
		MaxContext:           s.maxContext,
		KVDtype:              s.kv,
		SharedPrefix:         true,
		ExpertResidencyBytes: cfg.ExpertResidencyBytes,
	})
	built := time.Now()
	if err != nil {
		return wt, err
	}
	wt.build = built.Sub(begin)
	tr.add("engine.wave_build", parent, 0, begin, built)

	// The sink is called in ascending (index, seq) order, so the first
	// call at a new index is the end of the step that produced it; index
	// 0 comes out of prefill.
	var marks []time.Time
	var htod0, kernels0 int64
	sink := func(_, index, _ int) {
		if index == len(marks) {
			marks = append(marks, time.Now())
			if index == 0 {
				htod0, kernels0 = pl.Counters.HtoDBytes.Load(), pl.Counters.GPUKernels.Load()
			}
		}
	}
	stop := func(seq, emitted int) bool { return emitted >= min(reqs[seq].GenLen, genLen) }
	_, err = pl.GenerateStream(engine.PromptsFromRequests(reqs, m.VocabSize), genLen, sink, stop)
	generated := time.Now()
	pl.Close()
	pl.ReleaseAll()
	idle := pl.KVIdle()
	closed := time.Now()
	if err == nil {
		err = idle
	}
	if err != nil {
		return wt, fmt.Errorf("driven wave: %w", err)
	}
	if len(marks) < 2 {
		return wt, fmt.Errorf("driven wave: %d step marks, need a decode step", len(marks))
	}
	wt.close = closed.Sub(generated)
	tr.add("engine.prefill", parent, 0, built, built.Add(pl.PrefillDuration))
	for i := 1; i < len(marks); i++ {
		tr.add("engine.step", parent, 0, marks[i-1], marks[i])
		wt.steps = append(wt.steps, ms(marks[i].Sub(marks[i-1])))
	}
	tr.add("engine.wave_close", parent, 0, generated, closed)
	tr.finish(parent, closed)

	if pl.PrefillDuration > 0 {
		wt.prefillTokS = float64(pl.PrefillTokens) / pl.PrefillDuration.Seconds()
	}
	steps := float64(len(wt.steps))
	wt.htodPerStep = float64(pl.Counters.HtoDBytes.Load()-htod0) / steps
	wt.kernelsStep = float64(pl.Counters.GPUKernels.Load()-kernels0) / steps
	return wt, nil
}

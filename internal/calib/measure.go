package calib

import (
	"fmt"
	"math/rand"
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/hardware"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/perfmodel"
	"moelightning/internal/roofline"
	"moelightning/internal/tensor"
	"moelightning/internal/workload"
)

// BuildConfig parameterizes a calibration run.
type BuildConfig struct {
	// Model is the bench architecture (tiny scale; the harness runs
	// real float32 math).
	Model model.Config
	// Spec is the host description whose raw peaks the efficiencies
	// are measured against (hardware.Host).
	Spec hardware.Spec
	// Seed makes synthetic weights and inputs deterministic.
	Seed int64
	// Quick shrinks grids and repetitions for CI smoke runs.
	Quick bool
}

// Build runs every micro-bench in-process and assembles the table:
// GEMM tiles across row counts, the blockwise attention core at both
// KV codecs across context lengths, whole packed-prefill passes across
// chunk sizes, and warm/cold whole decode steps — the last closing the
// loop as the decode schedule-efficiency factor and the measured
// expert warm-hit ratio.
func Build(cfg BuildConfig) (*Table, error) {
	if cfg.Model.Name == "" {
		return nil, fmt.Errorf("calib: empty model config")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Schema:            Schema,
		Host:              cfg.Spec.Name,
		Cores:             cfg.Spec.CPU.Cores,
		PeakFLOPS:         cfg.Spec.GPU.PeakFLOPS * float64(cfg.Spec.NumGPUs),
		PeakBandwidth:     cfg.Spec.GPU.MemBandwidth * float64(cfg.Spec.NumGPUs),
		ScheduleEffDecode: 1,
	}
	t.WithFallback(perfmodel.AnalyticEfficiency(cfg.Spec))

	gemmTokens := []int{1, 2, 4, 8, 16, 32, 64}
	attendCtx := []int{8, 16, 32, 64}
	prefillChunks := []int{32, 64, 128, 256}
	decodeSteps := 10
	if cfg.Quick {
		gemmTokens = []int{1, 4, 16, 64}
		attendCtx = []int{8, 32}
		prefillChunks = []int{32, 128}
		decodeSteps = 6
	}

	for _, tok := range gemmTokens {
		t.Entries = append(t.Entries, t.measureGEMM(cfg, tok))
	}
	for _, dtype := range []kvcache.DType{kvcache.F32, kvcache.Int8} {
		for _, ctx := range attendCtx {
			e, err := t.measureAttend(cfg, dtype, attendItems, ctx)
			if err != nil {
				return nil, err
			}
			t.Entries = append(t.Entries, e)
		}
	}
	for _, chunk := range prefillChunks {
		e, err := t.measurePrefill(cfg, chunk)
		if err != nil {
			return nil, err
		}
		t.Entries = append(t.Entries, e)
	}
	if err := t.closeDecodeLoop(cfg, decodeSteps); err != nil {
		return nil, err
	}
	return t, nil
}

// attendItems is the micro-batch width the attention benches run at —
// the standing scenarios' micro-batch size.
const attendItems = 4

// effOf derives the derating pair so Eq. 8's max(flops/(P*effC),
// bytes/(B*effB)) reproduces the measured seconds exactly at this
// shape.
func (t *Table) effOf(flops, bytes, seconds float64) (effC, effB float64) {
	return flops / seconds / t.PeakFLOPS, bytes / seconds / t.PeakBandwidth
}

// timeOp measures seconds per call: one warm-up call, then whole
// passes over f until minTime accumulates.
func timeOp(minTime time.Duration, f func()) float64 {
	f()
	var calls int
	start := time.Now()
	for time.Since(start) < minTime {
		f()
		calls++
	}
	return time.Since(start).Seconds() / float64(calls)
}

func (t *Table) minTime(cfg BuildConfig) time.Duration {
	if cfg.Quick {
		return 5 * time.Millisecond
	}
	return 25 * time.Millisecond
}

// measureGEMM times the engine's parallel matmul kernel on a
// tokens x Hidden by Hidden x Intermediate tile — the shape class
// behind the projection and expert-FFN GEMMs.
func (t *Table) measureGEMM(cfg BuildConfig, tokens int) Entry {
	m := cfg.Model
	h, inter := m.Hidden, m.Intermediate
	rng := rand.New(rand.NewSource(cfg.Seed + int64(tokens)))
	a := tensor.NewMat(tokens, h)
	bT := tensor.NewMat(inter, h)
	dst := tensor.NewMat(tokens, inter)
	for i := range a.Data {
		a.Data[i] = rng.Float32() - 0.5
	}
	for i := range bT.Data {
		bT.Data[i] = rng.Float32() - 0.5
	}
	secs := timeOp(t.minTime(cfg), func() { tensor.MatMulTParallel(dst, a, bT) })

	flops := 2 * float64(tokens) * float64(h) * float64(inter)
	bytes := 4 * float64(tokens*h+h*inter+tokens*inter)
	effC, effB := t.effOf(flops, bytes, secs)
	return Entry{Op: "gemm", Tokens: tokens, FLOPs: flops, Bytes: bytes,
		Seconds: secs, EffCompute: effC, EffBandwidth: effB}
}

// measureAttend times the blockwise attention core the decode loop
// runs (AttendMany over paged-KV block views) for `items` sequences at
// the given cached context, charging the model's AttnCost accounting.
func (t *Table) measureAttend(cfg BuildConfig, dtype kvcache.DType, items, context int) (Entry, error) {
	m := cfg.Model
	kvDim, qDim, headDim := m.KVDim(), m.QDim(), m.HeadDim
	arena := memory.NewArena("calib-kv", 4*items*(context+16)*kvDim*2+1<<20)
	cache, err := kvcache.New(arena, 1, kvDim, kvcache.DefaultBlockTokens, items*(context+16), dtype)
	if err != nil {
		return Entry{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(context)))
	row := make([]float32, kvDim)
	fill := func() []float32 {
		for i := range row {
			row[i] = rng.Float32() - 0.5
		}
		return row
	}
	for seq := 0; seq < items; seq++ {
		for tok := 0; tok < context; tok++ {
			if err := cache.Append(seq, 0, fill(), fill()); err != nil {
				return Entry{}, err
			}
		}
	}
	itemsBuf := make([]tensor.AttnItem, items)
	views := make([]kvcache.View, items)
	for i := range itemsBuf {
		q := make([]float32, qDim)
		for j := range q {
			q[j] = rng.Float32() - 0.5
		}
		cache.View(i, 0, &views[i])
		itemsBuf[i] = views[i].AttnItem(make([]float32, qDim), q)
	}
	secs := timeOp(t.minTime(cfg), func() { tensor.AttendMany(itemsBuf, m.QHeads, m.KVHeads, headDim) })

	cost := m.AttnCost(items, context)
	effC, effB := t.effOf(cost.FLOPs, cost.Bytes(), secs)
	return Entry{Op: "attend-" + dtype.String(), Tokens: items, Context: context, FLOPs: cost.FLOPs,
		Bytes: cost.Bytes(), Seconds: secs, EffCompute: effC, EffBandwidth: effB}, nil
}

// measurePrefill times one whole wave-packed prefill pass at the given
// chunk bound; the wave is sized so total prompt tokens equal the
// chunk, making the entry's bucket key the packed-batch size itself.
func (t *Table) measurePrefill(cfg BuildConfig, chunk int) (Entry, error) {
	seqs := 8
	if chunk < seqs {
		seqs = chunk
	}
	promptLen := chunk / seqs
	// Each pipeline prefills once; repeat whole passes (weights rebuilt
	// outside the timer) until enough wall clock accumulates.
	bench := engine.BenchConfig{
		Model: cfg.Model, Seed: cfg.Seed, Seqs: seqs, PromptLen: promptLen,
		Config: engine.Config{PrefillChunk: chunk, KVDtype: kvcache.F32},
	}
	min := t.minTime(cfg).Seconds()
	var tokens int
	var total float64
	var passes int
	for total < min && passes < 32 {
		res, err := engine.MeasurePrefill(bench)
		if err != nil {
			return Entry{}, err
		}
		tokens = res.Tokens
		total += res.Seconds
		passes++
	}
	secs := total / float64(passes)
	cost := cfg.Model.PrefillCost(tokens, promptLen)
	effC, effB := t.effOf(cost.FLOPs, cost.Bytes(), secs)
	return Entry{Op: "prefill", Tokens: tokens, FLOPs: cost.FLOPs,
		Bytes: cost.Bytes(), Seconds: secs, EffCompute: effC, EffBandwidth: effB}, nil
}

// closeDecodeLoop measures warm and cold whole decode steps, records
// them as decode-step entries, harvests the expert warm-hit ratio, and
// sets ScheduleEffDecode so the composed per-op prediction matches the
// measured warm step at the reference shape.
func (t *Table) closeDecodeLoop(cfg BuildConfig, steps int) error {
	const seqs, mu, promptLen = 8, attendItems, 4
	bench := engine.BenchConfig{
		Model: cfg.Model, Seed: cfg.Seed, Seqs: seqs, PromptLen: promptLen, Steps: steps,
		Config: engine.Config{MicroBatch: mu, KVDtype: kvcache.F32},
	}
	warm, err := engine.MeasureDecodeSteps(bench)
	if err != nil {
		return err
	}
	bench.ExpertResidencyBytes = 1 // one resident block: every acquisition is cold
	cold, err := engine.MeasureDecodeSteps(bench)
	if err != nil {
		return err
	}
	if acq := warm.ExpertHits + warm.ExpertMisses; acq > 0 {
		t.ExpertHitRatio = float64(warm.ExpertHits) / float64(acq)
	}
	for _, r := range []struct {
		name string
		res  engine.DecodeBenchResult
	}{{"warm", warm}, {"cold", cold}} {
		flops, bytes := t.decodeStepWork(cfg.Model, seqs, r.res.Context)
		effC, effB := t.effOf(flops, bytes, r.res.SecondsPerStep)
		t.Entries = append(t.Entries, Entry{Op: "decode-step", Tokens: seqs,
			Context: r.res.Context, FLOPs: flops, Bytes: bytes,
			Seconds: r.res.SecondsPerStep, EffCompute: effC, EffBandwidth: effB})
	}

	// Close the loop: predict the warm reference step from the per-op
	// entries alone and fold the residual — lane barriers, sampling,
	// the LM head, everything the isolated benches cannot see — into
	// one decode-stage factor.
	est, err := perfmodel.New(perfmodel.Input{
		Model: cfg.Model, Spec: cfg.Spec,
		Workload: workload.Config{Name: "calib-ref", NumRequests: seqs,
			AvgPrompt: promptLen, MaxPrompt: promptLen, GenLen: steps},
		Eff: t, KVCodec: perfmodel.KVPagedF32,
		Paged: true, ExpertHitRatio: t.ExpertHitRatio,
	})
	if err != nil {
		return err
	}
	p := perfmodel.Policy{N: seqs, Mu: mu, GPUFFN: true}
	predicted := est.DecodeStepTime(p, warm.Context)
	if predicted > 0 && warm.SecondsPerStep > 0 {
		t.ScheduleEffDecode = predicted / warm.SecondsPerStep
	}
	return nil
}

// decodeStepWork is the model-charged FLOPs/bytes of one whole decode
// step (all micro-batches, all layers) — the denominator for the
// informational decode-step entries.
func (t *Table) decodeStepWork(m model.Config, seqs, context int) (flops, bytes float64) {
	pre := m.PreAttnCost(seqs)
	post := m.PostAttnCost(seqs, m.ExpertsTouched(seqs))
	attn := m.AttnCost(seqs, context)
	flops = float64(m.Layers) * (pre.FLOPs + post.FLOPs + attn.FLOPs)
	bytes = float64(m.Layers) * (pre.Bytes() + post.Bytes() + attn.Bytes())
	return flops, bytes
}

// OpClassFor exposes the estimator's query classes for tests.
var _ roofline.EfficiencyModel = (*Table)(nil)

package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"moelightning/internal/batching"
	"moelightning/internal/hardware"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/paging"
	"moelightning/internal/perfmodel"
	"moelightning/internal/policy"
	"moelightning/internal/tensor"
	"moelightning/internal/workload"
)

// The layer probes time calls into each package's public functions from
// outside, at the shapes bench-moe-8x gives them. Bytes are computed
// from tensor sizes, not measured.

// prober times probe bodies, records one span per timed call and
// collects the metrics by name.
type prober struct {
	tr     *tracer
	parent int
	// budget is how long one probe keeps repeating its body.
	budget time.Duration
	rng    *rand.Rand
	m      model.Config
	out    map[string]float64
}

const probeMinReps = 5

// measure runs setup (untimed, may be nil) then body, repeatedly, and
// returns the median seconds one body took.
func (p *prober) measure(name string, setup, body func()) float64 {
	var took []float64
	for begin := time.Now(); len(took) < probeMinReps || time.Since(begin) < p.budget; {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		body()
		t1 := time.Now()
		p.tr.add("probe."+name, p.parent, 0, t0, t1)
		took = append(took, t1.Sub(t0).Seconds())
	}
	return median(took)
}

func repeat(n int, fn func()) func() {
	return func() {
		for i := 0; i < n; i++ {
			fn()
		}
	}
}

func randomMat(rng *rand.Rand, rows, cols int) tensor.Mat {
	m := tensor.NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// probeCache builds an empty cache of the model's geometry with room
// for seqs sequences of ctx tokens.
func probeCache(m model.Config, dtype kvcache.DType, seqs, ctx int) (*kvcache.Cache, error) {
	arena := memory.NewArena("probe-kv", seqs*ctx*m.Layers*2*m.KVDim()+1<<16)
	return kvcache.New(arena, m.Layers, m.KVDim(), kvcache.DefaultBlockTokens, seqs*ctx, dtype)
}

// fillCache appends ctx random tokens to each of the first seqs
// sequences at every layer.
func fillCache(rng *rand.Rand, c *kvcache.Cache, m model.Config, seqs, ctx int) error {
	kv := randomMat(rng, 2, m.KVDim())
	for s := 0; s < seqs; s++ {
		for t := 0; t < ctx; t++ {
			for l := 0; l < m.Layers; l++ {
				if err := c.Append(s, l, kv.Row(0), kv.Row(1)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// runProbes returns the probe-sourced layer metrics by name.
func runProbes(tr *tracer, budget time.Duration) (map[string]float64, error) {
	p := &prober{tr: tr, budget: budget, rng: rand.New(rand.NewSource(1)), m: benchModel(), out: make(map[string]float64)}
	p.parent = tr.add("probes", 0, 0, time.Now(), time.Now())
	defer func() { tr.finish(p.parent, time.Now()) }()
	for _, probe := range []func() error{p.probeTensor, p.probeKVCache, p.probePaging, p.probeBatching, p.probePolicy} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// probeCtx is the decode context the attention and cache probes use.
const probeCtx = 128

func (p *prober) probeTensor() error {
	m, rng := p.m, p.rng
	nq, nkv, hd := m.QHeads, m.KVHeads, m.HeadDim

	// The expert GEMM at decode (4 rows) and prefill (256 rows) batch
	// sizes, 128x448 expert shape.
	for _, rows := range []int{4, 256} {
		a, bT := randomMat(rng, rows, m.Hidden), randomMat(rng, m.Intermediate, m.Hidden)
		dst := tensor.NewMat(rows, m.Intermediate)
		calls := 1024 / rows
		name := fmt.Sprintf("tensor.gemm_rows%d_gflops", rows)
		sec := p.measure(name, nil, repeat(calls, func() { tensor.MatMulTParallel(dst, a, bT) }))
		p.out[name] = 2 * float64(rows*m.Hidden*m.Intermediate*calls) / sec / 1e9
	}

	// Decode attention over paged KV, 4 items of context 128.
	const items = 4
	for _, dtype := range []kvcache.DType{kvcache.F32, kvcache.Int8} {
		c, err := probeCache(m, dtype, items, probeCtx)
		if err == nil {
			err = fillCache(rng, c, m, items, probeCtx)
		}
		if err != nil {
			return err
		}
		q := randomMat(rng, items, m.QDim())
		o := tensor.NewMat(items, m.QDim())
		batch := make([]tensor.AttnItem, items)
		for i := range batch {
			batch[i] = tensor.AttnItem{Out: o.Row(i), Q: q.Row(i), Scores: make([]float32, nq/nkv*probeCtx)}
			if dtype == kvcache.Int8 {
				batch[i].KeyQBlocks, batch[i].ValueQBlocks, _ = c.QBlockView(i, 0, nil, nil)
				batch[i].RowScratch = make([]float32, hd)
			} else {
				batch[i].KeyBlocks, batch[i].ValueBlocks, _ = c.BlockView(i, 0, nil, nil)
			}
		}
		name := "tensor.attend_f32_gbs"
		if dtype == kvcache.Int8 {
			name = "tensor.attend_int8_gbs"
		}
		const calls = 64
		sec := p.measure(name, nil, repeat(calls, func() { tensor.AttendMany(batch, nq, nkv, hd) }))
		p.out[name] = float64(items*probeCtx*c.TokenBytes()*calls) / sec / 1e9
	}

	// Packed causal prefill attention over one 384-token prompt.
	const prompt = 384
	c, err := probeCache(m, kvcache.F32, 1, prompt)
	if err == nil {
		err = fillCache(rng, c, m, 1, prompt)
	}
	if err != nil {
		return err
	}
	item := tensor.CausalItem{Out: tensor.NewMat(prompt, m.QDim()), Queries: randomMat(rng, prompt, m.QDim())}
	item.KeyBlocks, item.ValueBlocks, _ = c.BlockView(0, 0, nil, nil)
	batch := []tensor.CausalItem{item}
	sec := p.measure("tensor.attend_causal_gbs", nil, func() { tensor.AttendCausalMany(batch, nq, nkv, hd) })
	p.out["tensor.attend_causal_gbs"] = float64(prompt*(prompt+1)/2*c.TokenBytes()) / sec / 1e9

	// Int8 group quantization of one KV row.
	src := randomMat(rng, 1, m.KVDim()).Data
	codes := make([]float32, tensor.PackedCols(len(src)))
	scales := make([]float32, tensor.QGroups(len(src), tensor.QGroupSize))
	const calls = 20000
	sec = p.measure("tensor.quantize_gbs", nil, repeat(calls, func() { tensor.QuantizeRow(codes, scales, src, tensor.QGroupSize) }))
	p.out["tensor.quantize_gbs"] = float64(4*len(src)*calls) / sec / 1e9
	return nil
}

func (p *prober) probeKVCache() error {
	m, rng := p.m, p.rng

	// Appending a wave's worth of context (16 sequences x 128 tokens,
	// every layer) into an empty cache.
	for _, dtype := range []kvcache.DType{kvcache.F32, kvcache.Int8} {
		c, err := probeCache(m, dtype, waveSeqs, probeCtx)
		if err != nil {
			return err
		}
		name := "kvcache.append_f32_mtok_s"
		if dtype == kvcache.Int8 {
			name = "kvcache.append_int8_mtok_s"
		}
		var ferr error
		release := func() {
			for s := 0; s < waveSeqs; s++ {
				c.Release(s)
			}
		}
		sec := p.measure(name, release, func() { ferr = fillCache(rng, c, m, waveSeqs, probeCtx) })
		if ferr != nil {
			return ferr
		}
		p.out[name] = float64(waveSeqs*probeCtx) / sec / 1e6
	}

	// Mapping a 64-token shared prefix into a follower at every layer,
	// viewing a 128-token context, and releasing one. Sequence 0 donates
	// the prefix, 1 attaches it, 2 is filled and released.
	const prefix = 64
	c, err := probeCache(m, kvcache.F32, 3, probeCtx)
	if err == nil {
		err = fillCache(rng, c, m, 1, probeCtx)
	}
	if err != nil {
		return err
	}
	tokens := make([]int, probeCtx)
	for i := range tokens {
		tokens[i] = rng.Intn(m.VocabSize)
	}
	for l := 0; l < m.Layers; l++ {
		c.IndexPrefix(0, l, tokens)
	}
	attached := 0
	sec := p.measure("kvcache.attach_prefix_us", func() { c.Release(1) }, func() {
		for l := 0; l < m.Layers; l++ {
			attached = c.AttachPrefix(1, l, tokens, prefix)
		}
	})
	if attached != prefix {
		return fmt.Errorf("probe: AttachPrefix mapped %d of %d tokens", attached, prefix)
	}
	p.out["kvcache.attach_prefix_us"] = sec * 1e6

	var kb, vb []tensor.Mat
	const calls = 20000
	sec = p.measure("kvcache.block_view_ns", nil, repeat(calls, func() { kb, vb, _ = c.BlockView(0, 0, kb[:0], vb[:0]) }))
	p.out["kvcache.block_view_ns"] = sec / calls * 1e9

	var ferr error
	row := randomMat(rng, 2, m.KVDim())
	sec = p.measure("kvcache.release_us", func() {
		for t := 0; t < probeCtx && ferr == nil; t++ {
			for l := 0; l < m.Layers && ferr == nil; l++ {
				ferr = c.Append(2, l, row.Row(0), row.Row(1))
			}
		}
	}, func() { c.Release(2) })
	p.out["kvcache.release_us"] = sec * 1e6
	return ferr
}

// probePaging probes the expert pager over the model's block size: sixteen
// blocks of CPU-side weights feed pagers of 4, 1 and 8 slots.
func (p *prober) probePaging() error {
	floats := int(p.m.ExpertParams())
	const blocks = 16
	home := memory.NewArena("probe-experts", blocks*floats)
	src := make([]memory.Region, blocks)
	for i := range src {
		src[i] = home.MustAlloc(floats)
		for j := range src[i].Data() {
			src[i].Data()[j] = p.rng.Float32()
		}
	}
	newPager := func(slots int) (*paging.ExpertPager, error) {
		return paging.NewExpertPager(memory.NewArena("probe-fast", slots*floats), memory.NewArena("probe-pinned", slots*floats),
			floats, slots, func(k paging.ExpertKey) memory.Region { return src[k.Expert] }, nil)
	}
	blockBytes := float64(4 * floats)
	var perr error
	cycle := func(pg *paging.ExpertPager, k paging.ExpertKey) {
		if _, err := pg.Acquire(k); err != nil {
			perr = err
			return
		}
		pg.Release(k)
	}

	hit, err := newPager(4)
	if err != nil {
		return err
	}
	defer hit.Close()
	cycle(hit, paging.ExpertKey{})
	const calls = 20000
	sec := p.measure("paging.hit_acquire_ns", nil, repeat(calls, func() { cycle(hit, paging.ExpertKey{}) }))
	p.out["paging.hit_acquire_ns"] = sec / calls * 1e9

	// One slot: every acquisition evicts the last block and fetches.
	miss, err := newPager(1)
	if err != nil {
		return err
	}
	defer miss.Close()
	sec = p.measure("paging.miss_fetch_gbs", nil, func() {
		for e := 0; e < blocks; e++ {
			cycle(miss, paging.ExpertKey{Expert: e})
		}
	})
	p.out["paging.miss_fetch_gbs"] = blocks * blockBytes / sec / 1e9

	// Two sets of eight keys alternate through eight slots, so every
	// prefetch evicts the other set and moves all eight blocks. Prefetch
	// is best effort; a block that never lands is an error, not a hang.
	pre, err := newPager(blocks / 2)
	if err != nil {
		return err
	}
	defer pre.Close()
	set := 0
	keys := make([]paging.ExpertKey, blocks/2)
	sec = p.measure("paging.prefetch_gbs", func() {
		for i := range keys {
			keys[i] = paging.ExpertKey{Expert: set*len(keys) + i}
		}
		set = 1 - set
	}, func() {
		pre.Prefetch(keys...)
		deadline := time.Now().Add(5 * time.Second)
		for _, k := range keys {
			for !pre.Resident(k) {
				if time.Now().After(deadline) {
					perr = fmt.Errorf("probe: prefetch of expert block %d did not land", k.Expert)
					return
				}
				runtime.Gosched()
			}
		}
	})
	p.out["paging.prefetch_gbs"] = float64(len(keys)) * blockBytes / sec / 1e9
	return perr
}

// probeBatching probes Alg. 2 over a 64-request queue of offline_decode
// requests under that workload's byte-aware budget.
func (p *prober) probeBatching() error {
	s, _ := findSpec("offline_decode")
	queue := make([]workload.Request, 64)
	for i, g := range s.stream(1, streamTimed).take(len(queue)) {
		queue[i] = g.req
	}
	tokenBytes := kvcache.TokenBytes(p.m.KVDim(), s.kv)
	cfg := batching.Config{
		NumMicroBatches: numMicroBatches, MicroBatchSize: microBatchSize, GenLen: s.genLen,
		CacheTokens: microBatchSize * s.maxContext,
		TokenBytes:  tokenBytes,
		CacheBytes:  microBatchSize * s.maxContext * tokenBytes,
	}
	var mbs []batching.MicroBatch
	var berr error
	const calls = 200
	sec := p.measure("batching.batch_us", nil, repeat(calls, func() { mbs, _, berr = batching.Batch(queue, cfg) }))
	p.out["batching.batch_us"] = sec / calls * 1e6
	p.out["batching.spread_tokens"] = float64(batching.Spread(mbs))
	return berr
}

// probePolicy probes the paper's search: Mixtral-8x7B on the T4 setting,
// MTBench with 128 generated tokens.
func (p *prober) probePolicy() error {
	in := perfmodel.Input{Model: model.Mixtral8x7B(), Spec: hardware.S1(), Workload: workload.MTBench(128)}
	var oerr error
	sec := p.measure("policy.optimize_ms", nil, func() { _, oerr = policy.Optimize(in) })
	p.out["policy.optimize_ms"] = sec * 1e3
	return oerr
}

package engine

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"moelightning/internal/faults"
	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/paging"
	"moelightning/internal/schedule"
	"moelightning/internal/sim"
	"moelightning/internal/tensor"
)

// Pipeline is the CGOPipe functional engine: it executes Alg. 1 with
// one worker goroutine per lane (GPU, CPU, HtoD, DtoH, Pin) and
// channel-carried dependencies. The task graph is the one schedule.Build
// emits for CGOPipe — the graph the simulator and the HRM figures run —
// bound to runTask for a run's shape (layers, micro-batches, look-ahead,
// attention pages, the layer-wide expert FFN; retirement empties a
// micro-batch, it never removes a task) and bound again only when a
// run's micro-batch count differs from the last one's. Both phases are
// passes of that one graph, driven by one loop (Run) through one entry
// (pass): one planner gives a prompt pass up to PrefillChunk prompt
// tokens as rows and a decode step one row per live sequence, and a pass
// only sets its rows and runs the graph. Built once for a capacity of
// sequences, a pipeline runs runs of up to that many, one at a time;
// only a run's own state is reset between them (begin).
// Attention, the O projection and the router run per micro-batch; the
// expert FFN runs once per layer over the rows of all of them (ffn(l)),
// so a layer passes over each routed expert's weights once however the
// wave is partitioned. Weights live in the CPU arena and
// stream in two granularities: the shared attention/router region of
// each layer moves through pinned staging into a double-buffered GPU
// region, page by page, while expert FFN blocks move individually
// through an ExpertPager that keeps a fixed-byte resident set on the
// GPU. Those copies are tasks of the graph too: a layer's first
// post-attention task announces the layer to the pager — the previous
// layer's expert FFN has retired, so its blocks are free to go — and then
// one expert share per micro-batch on the Pin lane fetches its part of the
// next layer's predicted experts, which that layer's ffn waits for, in
// prompt passes and decode steps alike. The pager evicts the layer
// furthest ahead in the cyclic layer order first, so each block crosses
// once per pass through the layers, behind the layer's GEMMs rather than
// on the GPU lane, and a larger pool keeps the layers coming up soonest
// resident across steps. A routed-to expert that is not resident
// demand-fetches synchronously (bit-identical output for any residency
// size). Attention runs on the CPU worker against the CPU-resident paged
// KV cache; everything else runs on the GPU worker, which only ever
// reads GPU-arena memory.
type Pipeline struct {
	w      *Weights
	layout Layout

	// db (GPU) and staging (pinned) carry the shared weights in pages of
	// table, one page per micro-batch of the bound graph.
	db, staging *paging.DoubleBuffer
	table       paging.PageTable
	pager       *paging.ExpertPager
	cache       *kvcache.Cache

	// hidden is the GPU-resident residual stream of the pass in flight,
	// one row per token row of the pass.
	hidden tensor.Mat

	// The run's micro-batch partition: mbs[j] lists sequence indices.
	mbs        [][]int
	microBatch int

	// The transfer buffers (GPU and CPU sides), one row per token row of
	// the pass: micro-batch j's rows start at rowOff[j], as in hidden.
	qkvGPU, qkvCPU   memory.Region
	attnGPU, attnCPU memory.Region

	lanes  *laneSet
	closed bool

	// The inputs of the pass in flight, written before the graph is
	// submitted and read by the lane tasks: the virtual index of the
	// pass's layer 0 (pass number x Layers; buffer slots go by its
	// parity, which flips between passes when Layers is odd), and the
	// rows. Sequence s computes positions [spanLo[s], spanHi[s]), one row
	// each; micro-batch j's sequences take rows rowOff[j] onwards in
	// partition order (rowOff[len(mbs)] is the pass's row count), and row
	// r is position rowPos[r] of sequence rowSeq[r]. nextRows is how many
	// rows the pass after this one routes, what the last layer's expert
	// prefetch is sized by.
	vbase          int
	spanLo, spanHi []int
	rowOff         []int
	rowSeq, rowPos []int
	nextRows       int

	// The run's prompts, the shared prefix each sequence maps instead of
	// computing and its donor, -1 when the cache holds it
	// (planPrefixReuse), each sequence's next
	// input token once its prompt is done (the greedy sample of its last
	// row), and how many passes the run has run, prompt passes first.
	prompts     [][]int
	skip, donor []int
	next        []int
	passes      int

	// Counters observable by tests and examples.
	Counters Counters

	// PrefillTokens and PrefillDuration report the last run's prompt
	// phase: how many prompt tokens completed prefill (a sequence retired
	// by prefill-time KV exhaustion contributes none) and the wall-clock
	// its passes took. Valid once a run's prompt phase is over; the
	// server folds them into ServerStats' prefill throughput.
	PrefillTokens   int
	PrefillDuration time.Duration

	// ExpertLoad counts expert selections per layer, cumulative over
	// runs: the prefetch prediction reads it.
	ExpertLoad [][]int64

	// Row workspaces, allocated once at build time for the largest pass
	// so lane tasks never allocate. The GPU lane serializes its tasks, so
	// pre-attention reads its micro-batch's rows of hidden in place and
	// shares one set of norm rows across all micro-batches;
	// post-attention's x rows and scratch are layer-wide like hidden —
	// post(l, j) fills micro-batch j's rows, ffn(l) reads them all — which
	// is why pre-attention, which runs between the two, cannot borrow the
	// scratch's norm rows. Attention reads the paged KV cache through
	// views, one per sequence: a zero-copy window onto the sequence's
	// blocks at the layer in hand plus the scratch the cache's codec
	// needs, refilled by the CPU lane and grown to the sequence's longest
	// context. attnItems and causalItems are the CPU lane's batch, one
	// item per sequence of a micro-batch: a one-row span (every decode
	// row) attends as a single token, a longer prompt span causally.
	xPost       tensor.Mat
	preNormed   []float32
	views       []kvcache.View
	attnItems   []tensor.AttnItem
	causalItems []tensor.CausalItem

	// seqErr records per-sequence failures hit mid-pass; the offenders
	// retire at the pass boundary instead of failing the wave. During a
	// pass two lanes write it — the CPU lane on KV-pool exhaustion
	// (runCPUAttn, for the sequences of its micro-batch), the GPU lane on
	// a failed expert fetch (runExpertFFN, for rows of every
	// micro-batch) — and the graph orders them: within a layer every
	// cattn(l, j) precedes ffn(l) through cattn -> loadh -> post(l, j) ->
	// ffn(l), and ffn(l) precedes every cattn(l+1, j) through ffn(l) ->
	// pre(l+1, j) -> qkv -> cattn, so no element is written while another
	// lane reads or writes it. The generation goroutine reads it after the
	// pass barrier.
	seqErr []error

	scratch *ffnScratch
	// The LM head's workspaces, one row per sequence: the rows that emit
	// a token are normed into normedHead, packed, and meet the embedding
	// in one GEMM.
	logits, normedHead []float32
	prefillChunk       int

	// expSrc adapts the pager to the expertSource expertFFN consumes, one
	// real layer at a time (ffn(l) sets the layer). The GPU lane is serial,
	// so one reusable instance suffices. experts is what ffn(l) hands
	// expertFFN: &expSrc, or a test's wrapper around it. predBuf and keyBuf
	// are the expert shares' prediction workspaces, owned by the Pin lane
	// (fetchExperts).
	expSrc  pagedExperts
	experts expertSource
	predBuf []int
	keyBuf  []paging.ExpertKey

	// err is the run's first lane-task error.
	err atomic.Pointer[error]

	// faults is the optional injector consulted at the stall seam (and
	// wired into the cache and pager hooks at build time); nil injects
	// nothing.
	faults *faults.Injector
}

// Counters tallies data movement and kernel activity. Movement is
// counted in bytes, not elements, so the numbers stay truthful when KV
// rows are int8+scale rather than float32: DtoHBytes is the K/V the
// offload writes into the CPU cache, the cache's bytes per token for
// every appended row. HtoDBytes/PinBytes/PagesMoved cover the
// scheduled-lane traffic (shared weight pages and attention
// activations); GPUKernels counts the graph's GPU tasks, CPUAttns its
// attention tasks. Expert weight blocks move through the pager — on the
// Pin lane as the graph's expert shares, on the GPU lane as demand
// fetches — and are tallied separately in ExpertPaging, never in
// PinBytes or HtoDBytes; its bytes are (Misses+Prefetched) * block bytes.
type Counters struct {
	HtoDBytes, DtoHBytes, PinBytes   atomic.Int64
	PagesMoved, GPUKernels, CPUAttns atomic.Int64

	// PrefixHitTokens counts prompt tokens whose KV was mapped from a
	// resident shared prefix instead of being recomputed: the FLOPs and
	// cache bytes prefix sharing saved. RetainedHitTokens is the part of
	// it mapped from blocks an earlier run left cached rather than from a
	// wave-mate.
	PrefixHitTokens, RetainedHitTokens atomic.Int64

	// ExpertPaging is the expert-weight pager's traffic: warm hits,
	// demand-fetch misses, prefetches, evictions and bytes fetched.
	ExpertPaging paging.Stats
}

// floatBytes converts a float32 element count to bytes for the
// movement counters.
func floatBytes(n int) int64 { return int64(n) * 4 }

// Config holds pipeline construction parameters.
type Config struct {
	// MicroBatch is μ: sequences per micro-batch.
	MicroBatch int
	// MaxContext is a sequence slot's KV pool share in float32 tokens.
	MaxContext int
	// KVDtype selects the KV cache codec: kvcache.F32 (the zero value;
	// bit-exact) or kvcache.Int8 (§3.3 group quantization — ~9/32 the
	// cache footprint, attention dequantizes rows in place).
	KVDtype kvcache.DType
	// PrefillChunk is one pass's token budget: the prompt phase runs the
	// wave's prompt tokens through the step graph in passes of at most
	// this many rows (fewer if the KV pool holds fewer), and the row
	// workspaces are sized by it instead of by the wave's total. <= 0
	// selects DefaultPrefillChunk. Chunking never changes results: every
	// kernel is row-independent and attention reads each token's own
	// cached prefix, so the output is bit-identical for any chunk size.
	PrefillChunk int
	// SharedPrefix is ignored: prefix sharing is always on. Sequences
	// whose prompts open with identical whole blocks map them in place
	// (planPrefixReuse). The field stays because the standing benchmark's
	// wave harness (bench/wave.go) sets it, until ROADMAP item 7 revises
	// that frozen code.
	SharedPrefix bool
	// ExpertResidencyBytes caps the GPU-resident expert-weight pool:
	// the pager keeps this many bytes of expert FFN blocks resident
	// (rounded down to whole blocks, minimum one). <= 0 selects two
	// layers' expert sets — the computing layer plus the one the Pin
	// lane's expert shares fetch behind it. That is the size at which
	// every expert block is fetched exactly once per decode step and none
	// of it on the GPU lane. A layer's shares stop at rows x TopK blocks,
	// all its rows can route to, so a wave of one or two sequences copies
	// no block it cannot read, and a routed block the prediction left out
	// is a demand fetch of the same bytes. More keeps the layers coming up
	// soonest resident across steps; less turns the difference into
	// demand fetches. Output is bit-identical for ANY value: a routed-to
	// expert that is not resident demand-fetches synchronously, so a
	// small budget only costs time, never correctness.
	ExpertResidencyBytes int
	// Faults optionally threads a deterministic fault injector through
	// the pipeline's seams: expert-pager fetches, KV block allocation,
	// and the stall point at every pass boundary, which wakes when the
	// run's context is done. Nil injects nothing and costs nothing.
	Faults *faults.Injector
}

// DefaultPrefillChunk is the prompt pass's token budget used when
// Config.PrefillChunk is unset: large enough that typical waves pack
// into one pass, small enough to bound the row workspaces for
// long-prompt waves.
const DefaultPrefillChunk = 1024

// NewPipeline assembles the engine over explicit arenas for a capacity
// of numSeqs sequences: a run carries up to that many. Generate chunks
// its prompts into micro-batches of cfg.MicroBatch (<= 0: one
// micro-batch), and the pipeline starts bound for numSeqs so chunked.
func NewPipeline(w *Weights, gpu, pinned, cacheArena *memory.Arena, numSeqs int, cfg Config) (*Pipeline, error) {
	if numSeqs <= 0 {
		return nil, fmt.Errorf("engine: non-positive sequence count %d", numSeqs)
	}
	layout := w.Layout

	// The double buffer and staging carry only the shared
	// attention/router prefix of each layer; expert FFN blocks page
	// individually through the ExpertPager below.
	db, err := paging.NewDoubleBuffer(gpu, layout.SharedFloats())
	if err != nil {
		return nil, err
	}
	staging, err := paging.NewDoubleBuffer(pinned, layout.SharedFloats())
	if err != nil {
		return nil, err
	}
	q, kv := w.Cfg.QDim(), w.Cfg.KVDim()
	pool := kvcache.PoolTokens(kv, numSeqs*cfg.MaxContext, cfg.KVDtype)
	cache, err := kvcache.New(cacheArena, w.Cfg.Layers, kv, kvcache.DefaultBlockTokens, pool, cfg.KVDtype)
	if err != nil {
		return nil, err
	}

	// The row workspaces are sized once for the largest pass: a decode
	// step's row per sequence, or a prompt pass's token budget — capped
	// at the sequences' float32-token share of the KV pool.
	p := &Pipeline{
		w: w, layout: layout,
		db: db, staging: staging, cache: cache,
		microBatch:   cfg.MicroBatch,
		logits:       make([]float32, numSeqs*w.Cfg.VocabSize),
		normedHead:   make([]float32, numSeqs*w.Cfg.Hidden),
		prefillChunk: cfg.PrefillChunk,
	}
	if p.prefillChunk <= 0 {
		p.prefillChunk = DefaultPrefillChunk
	}
	rows := max(numSeqs, min(p.prefillChunk, numSeqs*cfg.MaxContext))
	p.prefillChunk = min(p.prefillChunk, rows)
	var hiddenRegion memory.Region
	for _, r := range []struct {
		dst   *memory.Region
		arena *memory.Arena
		n     int
	}{
		{&hiddenRegion, gpu, rows * w.Cfg.Hidden},
		{&p.qkvGPU, gpu, rows * (q + 2*kv)}, {&p.attnGPU, gpu, rows * q},
		{&p.qkvCPU, pinned, rows * (q + 2*kv)}, {&p.attnCPU, pinned, rows * q},
	} {
		if *r.dst, err = r.arena.Alloc(r.n); err != nil {
			return nil, err
		}
	}
	p.hidden = tensor.FromSlice(rows, w.Cfg.Hidden, hiddenRegion.Data())

	p.scratch = newFFNScratch(layout, rows)
	p.xPost = tensor.NewMat(rows, w.Cfg.Hidden)
	p.preNormed = make([]float32, rows*w.Cfg.Hidden)
	p.rowOff = make([]int, numSeqs+1)
	p.rowSeq = make([]int, rows)
	p.rowPos = make([]int, rows)
	p.spanLo = make([]int, numSeqs)
	p.spanHi = make([]int, numSeqs)
	p.next = make([]int, numSeqs)
	p.views = make([]kvcache.View, numSeqs)
	p.attnItems = make([]tensor.AttnItem, 0, numSeqs)
	p.causalItems = make([]tensor.CausalItem, 0, numSeqs)
	p.seqErr = make([]error, numSeqs)

	p.ExpertLoad = make([][]int64, w.Cfg.Layers)
	for i := range p.ExpertLoad {
		p.ExpertLoad[i] = make([]int64, w.Cfg.Experts)
	}

	slots := layout.ResidencySlots(cfg.ExpertResidencyBytes)
	p.pager, err = paging.NewExpertPager(gpu, nil, layout.ExpertFloats(), slots,
		func(k paging.ExpertKey) memory.Region {
			lo, hi := layout.ExpertBounds(k.Expert)
			return w.Layers[k.Layer].Slice(lo, hi)
		}, &p.Counters.ExpertPaging)
	if err != nil {
		return nil, err
	}
	p.expSrc = pagedExperts{p: p}
	p.experts = &p.expSrc
	p.predBuf = make([]int, 0, w.Cfg.Experts)
	p.keyBuf = make([]paging.ExpertKey, 0, w.Cfg.Experts)

	if cfg.Faults != nil {
		p.faults = cfg.Faults
		cache.SetAllocHook(cfg.Faults.KVAlloc)
		p.pager.SetFetchFault(cfg.Faults.ExpertFetch)
	}
	if err := p.begin(make([][]int, numSeqs), nil); err != nil {
		return nil, err
	}
	return p, nil
}

// begin readies the pipeline for a run of the prompts in the given
// micro-batches (nil: Generate's, consecutive runs of Config.MicroBatch
// or, when that is not positive, one). It releases the last run's
// sequences and resets the run's state: each sequence's span starts
// past its planned shared prefix (planPrefixReuse) — a prefix the cache
// kept from earlier runs is attached here, at every layer, before any
// pass can reclaim it — and rows and next tokens are laid afresh by
// every pass. When the micro-batch count
// differs from the bound graph's, it splits the shared weights into that
// many pages and binds the lanes to the graph schedule.Build emits for
// it. The partition is copied: retirement assigns into p.mbs.
func (p *Pipeline) begin(prompts, partition [][]int) error {
	n := len(prompts)
	if n <= 0 || n > len(p.next) {
		return fmt.Errorf("engine: %d sequences for a pipeline of %d", n, len(p.next))
	}
	if partition == nil {
		size := cmp.Or(max(p.microBatch, 0), n)
		for s := 0; s < n; s += size {
			mb := make([]int, min(size, n-s))
			for i := range mb {
				mb[i] = s + i
			}
			partition = append(partition, mb)
		}
	}
	if err := validatePartition(partition, n); err != nil {
		return err
	}
	if nb := len(partition); nb != len(p.mbs) {
		table, err := paging.NewPageTable(p.layout.SharedFloats(), nb)
		if err != nil {
			return err
		}
		graph, err := schedule.Build(schedule.CGOPipe, schedule.Plan{
			Layers: p.w.Cfg.Layers, MicroBatches: nb,
			AttnPages: attnPages(table, p.layout.AttnFloats()), LayerFFN: true,
		})
		if err != nil {
			return err
		}
		if p.lanes != nil {
			p.lanes.close()
		}
		p.table = table
		p.lanes = newLaneSet(graph, p.runTask, p.fail)
	}
	p.ReleaseAll()
	p.mbs = append(p.mbs[:0], partition...)
	p.rowOff = p.rowOff[:len(partition)+1]
	p.seqErr = p.seqErr[:n]
	clear(p.seqErr)
	p.passes, p.PrefillTokens, p.PrefillDuration = 0, 0, 0
	p.err.Store(nil)
	p.prompts = prompts
	p.skip, p.donor = p.planPrefixReuse(prompts)
	for s, n := range p.skip {
		if n > 0 && p.donor[s] < 0 {
			for l := 0; l < p.w.Cfg.Layers; l++ {
				p.cache.AttachPrefix(s, l, prompts[s], n)
			}
		}
	}
	copy(p.spanHi, p.skip)
	return nil
}

// Close shuts the lane goroutines down. The pipeline is unusable
// afterwards.
func (p *Pipeline) Close() {
	if !p.closed {
		p.lanes.close()
		p.closed = true
	}
}

func (p *Pipeline) fail(err error) {
	if err != nil {
		p.err.CompareAndSwap(nil, &err)
	}
}

func (p *Pipeline) failed() error {
	if e := p.err.Load(); e != nil {
		return *e
	}
	return nil
}

// ReleaseAll releases every sequence's cache blocks (idempotent — a
// sequence already retired or released is a no-op). The server calls
// it after each wave so KVIdle can verify the pool returned to its
// initial free count, cached prefix blocks included.
func (p *Pipeline) ReleaseAll() {
	for s := range p.seqErr {
		p.cache.Release(s)
	}
}

// KVIdle verifies no sequence holds the pipeline's KV cache: every
// block free or cached (unreferenced, kept for its indexed prefix), no
// streams, and every prefix-index entry naming a cached block
// (kvcache.CheckIdle). It is the run-end leak check.
func (p *Pipeline) KVIdle() error { return p.cache.CheckIdle() }

// validatePartition checks an explicit micro-batch partition covers
// [0, n) exactly once with no empty micro-batches.
func validatePartition(parts [][]int, n int) error {
	seen := make([]bool, n)
	count := 0
	for i, mb := range parts {
		if len(mb) == 0 {
			return fmt.Errorf("engine: partition %d is empty", i)
		}
		for _, s := range mb {
			if s < 0 || s >= n {
				return fmt.Errorf("engine: partition %d references sequence %d of %d", i, s, n)
			}
			if seen[s] {
				return fmt.Errorf("engine: sequence %d appears twice in the partition", s)
			}
			seen[s] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("engine: partition covers %d of %d sequences", count, n)
	}
	return nil
}

// laneSet executes the step's task graph, one pass at a time, with one
// worker goroutine per lane. The graph is bound once, at construction: tasks
// keeps the builder's order, which is Alg. 1's issue order, and every
// dependency id becomes an edge carrying one buffered token a step — a
// task's ready channel has its in-degree as capacity, a finishing task
// sends one token to each dependent and a starting task receives all of
// its own ("share memory by communicating"). When a step's last task has
// finished every channel is empty again, so the next step re-arms
// nothing and allocates nothing.
type laneSet struct {
	tasks []task
	chans []chan *task // by sim.Lane; nil where the graph has no task
	run   func(*sim.Task) error
	fail  func(error)
	wg    sync.WaitGroup // the lane workers, until close
	step  sync.WaitGroup // the tasks of the step in flight
}

// task is one builder task with its edges resolved.
type task struct {
	sim.Task
	ready chan struct{} // one token per dependency
	next  []*task       // dependents
}

// newLaneSet binds the graph a schedule builder emitted: run executes a
// task by its (role, layer, micro-batch) coordinates, on the task's
// lane, and fail receives what it returns.
func newLaneSet(built []sim.Task, run func(*sim.Task) error, fail func(error)) *laneSet {
	ls := &laneSet{
		tasks: make([]task, len(built)),
		chans: make([]chan *task, len(sim.Lanes())),
		run:   run, fail: fail,
	}
	byID := make(map[int]*task, len(built))
	perLane := make([]int, len(ls.chans))
	for i, b := range built {
		ls.tasks[i].Task = b
		byID[b.ID] = &ls.tasks[i]
		perLane[b.Lane]++
	}
	for i := range ls.tasks {
		t := &ls.tasks[i]
		if len(t.Deps) > 0 {
			t.ready = make(chan struct{}, len(t.Deps))
		}
		for _, d := range t.Deps {
			byID[d].next = append(byID[d].next, t)
		}
	}
	for lane, n := range perLane {
		if n == 0 {
			continue
		}
		ls.chans[lane] = make(chan *task, n) // a whole step's sends: submitting never blocks
		ls.wg.Add(1)
		go ls.work(ls.chans[lane])
	}
	return ls
}

func (ls *laneSet) work(ch chan *task) {
	defer ls.wg.Done()
	for t := range ch {
		for range t.Deps {
			<-t.ready
		}
		if err := ls.run(&t.Task); err != nil {
			ls.fail(fmt.Errorf("%v: %w", t.Task, err))
		}
		for _, d := range t.next {
			d.ready <- struct{}{}
		}
		ls.step.Done()
	}
}

// runStep submits every task to its lane in issue order and waits for
// the step barrier: all of them finished.
func (ls *laneSet) runStep() {
	ls.step.Add(len(ls.tasks))
	for i := range ls.tasks {
		t := &ls.tasks[i]
		ls.chans[t.Lane] <- t
	}
	ls.step.Wait()
}

func (ls *laneSet) close() {
	for _, ch := range ls.chans {
		if ch != nil {
			close(ch)
		}
	}
	ls.wg.Wait()
}

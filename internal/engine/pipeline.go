package engine

import (
	"errors"
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

// Pipeline is the CGOPipe functional engine: decode steps execute
// Alg. 1 with one worker goroutine per lane (GPU, CPU, HtoD, DtoH, Pin)
// and channel-carried dependencies. The step's task graph is the one
// schedule.Build emits for CGOPipe — the graph the simulator and the HRM
// figures run — built once at construction for the pipeline's shape
// (layers, micro-batches, look-ahead, attention pages, the layer-wide
// expert FFN; retirement empties a micro-batch, it never removes a task)
// and bound to runTask; a step only sets its inputs and runs it.
// Attention, the O projection and the router run per micro-batch; the
// expert FFN runs once per layer over the rows of all of them (ffn(l)),
// so a layer passes over each routed expert's weights once however the
// wave is partitioned. Weights live in the CPU arena and
// stream in two granularities: the shared attention/router region of
// each layer moves through pinned staging into a double-buffered GPU
// region, page by page, while expert FFN blocks move individually
// through an ExpertPager that keeps a fixed-byte resident set on the
// GPU. The engine tells the pager the schedule it already knows: as a
// layer's first post-attention task starts — the previous layer's
// expert FFN has retired, so its blocks are free to go — it announces the
// layer and hands over the next layer's predicted experts (prefill does
// the same once per layer). The pager evicts the layer furthest ahead
// in the cyclic layer order first and its worker never holds more than
// that one request, so each block crosses once per pass through the
// layers, behind the layer's GEMMs rather than on the GPU lane, and a
// larger pool keeps the layers coming up soonest resident across steps.
// A routed-to expert that is not resident demand-fetches synchronously
// (bit-identical output for any residency size). Attention runs on the
// CPU worker against the CPU-resident paged KV cache; everything else
// runs on the GPU worker, which only ever reads GPU-arena memory.
type Pipeline struct {
	w      *Weights
	layout Layout

	gpuArena    *memory.Arena
	pinnedArena *memory.Arena

	db      *paging.DoubleBuffer
	staging *paging.Staging
	pager   *paging.ExpertPager
	cache   *kvcache.Cache

	// hidden is the GPU-resident [numSeqs, hidden] state.
	hidden tensor.Mat

	// Micro-batch partition: mbs[j] lists sequence indices.
	mbs [][]int

	// Per-micro-batch transfer buffers (GPU and CPU sides).
	qkvGPU, qkvCPU   []memory.Region
	attnGPU, attnCPU []memory.Region

	lanes  *laneSet
	closed bool
	used   bool

	// The inputs of the decode step in flight, written by decodeStep
	// before it submits the graph and read by the lane tasks: the virtual
	// index of the step's layer 0 (step x Layers; buffer slots go by its
	// parity, which flips between steps when Layers is odd), every
	// sequence's position at step start, the live row count, and where
	// the live rows sit in the layer-wide post-attention workspaces
	// (xPost, scratch): micro-batch j's sequences take rows rowOff[j]
	// onwards in partition order, and row r belongs to sequence rowSeq[r].
	vbase     int
	positions []int
	stepRows  int
	rowOff    []int
	rowSeq    []int

	// Counters observable by tests and examples.
	Counters Counters

	// PrefillTokens and PrefillDuration report the wave's prompt phase:
	// how many prompt tokens completed prefill (a sequence retired by
	// prefill-time KV exhaustion contributes none) and the wall-clock
	// the packed pass took. Valid once Generate/GenerateStream has run
	// prefill; the server folds them into ServerStats' prefill
	// throughput.
	PrefillTokens   int
	PrefillDuration time.Duration

	// ExpertLoad counts expert selections per layer.
	ExpertLoad [][]int64

	// Steady-state decode workspaces, allocated once at build time so
	// lane tasks never allocate. The GPU lane serializes its tasks, so
	// pre-attention shares one x staging buffer, one position buffer and
	// one set of norm rows across all micro-batches, each sized by the
	// largest; post-attention's x rows and scratch are layer-wide, one
	// row per sequence — post(l, j) fills micro-batch j's rows, ffn(l)
	// reads them all — which is why pre-attention, which runs between
	// the two, cannot borrow the scratch's norm rows. Attention reads the
	// paged KV cache through views, one per sequence: a zero-copy window
	// onto the sequence's blocks at the layer in hand plus the scratch
	// the cache's codec needs, refilled by prefill and then by the CPU
	// lane, and grown to the sequence's longest context. attnItems is the
	// CPU lane's batch, one item per micro-batch slot.
	xPre, xPost tensor.Mat
	preNormed   []float32
	posBuf      []int
	views       []kvcache.View
	attnItems   []tensor.AttnItem

	// seqErr records per-sequence failures hit mid-step; GenerateStream
	// retires the offenders at the next step boundary instead of failing
	// the wave. During a step two lanes write it — the CPU lane on KV-pool
	// exhaustion (runCPUAttn, for the sequences of its micro-batch), the
	// GPU lane on a failed expert fetch (runExpertFFN, for rows of every
	// micro-batch) — and the graph orders them: within a layer every
	// cattn(l, j) precedes ffn(l) through cattn -> loadh -> post(l, j) ->
	// ffn(l), and ffn(l) precedes every cattn(l+1, j) through ffn(l) ->
	// pre(l+1, j) -> qkv -> cattn, so no element is written while another
	// lane reads or writes it. The generation goroutine reads it after the
	// step barrier; prefill, which is single-threaded, writes it too.
	seqErr []error

	scratch *ffnScratch
	// The LM head's workspaces, one row per sequence: live rows are
	// normed into normedHead, packed, and meet the embedding in one GEMM.
	logits, normedHead []float32
	prefillChunk       int
	sharedPrefix       bool

	// expSrc adapts the pager to the expertSource the kernels consume,
	// one real layer at a time. The GPU lane and the single-threaded
	// prefill are each serial, so one reusable instance suffices.
	// predBuf and keyBuf are the prefetch-prediction workspaces.
	expSrc  pagedExperts
	predBuf []int
	keyBuf  []paging.ExpertKey

	// kern selects the forward kernels; benchmarks swap in the seed
	// scalar implementations to measure the optimized paths' speedup.
	kern kernels

	err atomic.Value

	// faults is the optional injector consulted at the stall seam (and
	// wired into the cache and pager hooks at build time); nil injects
	// nothing. abortCh/abortOnce/abortReason implement cooperative wave
	// abort: Abort closes the channel, GenerateStream notices at the
	// next prefill-layer or decode-step boundary (and injected stalls
	// wake immediately), and the generation returns the abort reason.
	faults      *faults.Injector
	abortCh     chan struct{}
	abortOnce   sync.Once
	abortReason error
}

// kernels bundles the forward-pass implementations the lane tasks call.
// route and ffn are the two halves of postAttention: prefill calls them
// back to back over a packed chunk, decode from post(l, j) and ffn(l).
type kernels struct {
	preAttn func(layout Layout, shared []float32, x tensor.Mat, positions []int, qkv, normed []float32)
	route   func(layout Layout, shared []float32, attnOut, x tensor.Mat, scratch *ffnScratch, off int)
	ffn     func(layout Layout, experts expertSource, x tensor.Mat, scratch *ffnScratch) [][]int
	attend  func(items []tensor.AttnItem, nq, nkv, headDim int)
}

func defaultKernels() kernels {
	return kernels{preAttn: preAttention, route: postRoute, ffn: expertFFN, attend: tensor.AttendMany}
}

// Counters tallies data movement and kernel activity. Movement is
// counted in bytes, not elements, so the numbers stay truthful when KV
// rows are int8+scale rather than float32. HtoDBytes/PinBytes/
// PagesMoved cover the scheduled-lane traffic (shared weight pages and
// attention activations); expert weight blocks move through the pager
// and are tallied separately in ExpertPaging, whose byte count is
// deterministic ((Misses+Prefetched) * block bytes) even though the
// hit/prefetch split depends on prefetch timing.
type Counters struct {
	HtoDBytes, DtoHBytes, PinBytes   atomic.Int64
	PagesMoved, GPUKernels, CPUAttns atomic.Int64

	// PrefixHitTokens counts prompt tokens whose KV was mapped from a
	// resident shared prefix instead of being recomputed: the FLOPs and
	// cache bytes prefix sharing saved. CowCopies counts copy-on-write
	// block copies (divergence into a shared block).
	PrefixHitTokens, CowCopies atomic.Int64

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
	// MaxContext bounds per-sequence context for cache sizing.
	MaxContext int
	// Lookahead is how many micro-batches ahead CPU attention launches
	// (<= 0: Alg. 1's 2).
	Lookahead int
	// Partition optionally supplies an explicit micro-batch partition
	// (lists of sequence indices), e.g. from the Alg. 2 batcher; when
	// set it overrides MicroBatch-based chunking. Every sequence index
	// in [0, numSeqs) must appear exactly once.
	Partition [][]int
	// KVDtype selects the KV cache codec: kvcache.F32 (the zero value;
	// bit-exact) or kvcache.Int8 (§3.3 group quantization — ~9/32 the
	// cache footprint, attention dequantizes rows in place).
	KVDtype kvcache.DType
	// PrefillChunk bounds the wave-packed prefill's per-layer packed
	// batch — and with it the prefill QKV/attention/FFN scratch — to
	// this many prompt tokens: the wave's tokens stream through each
	// layer in PrefillChunk-sized slices instead of sizing scratch by
	// the wave's total. <= 0 selects DefaultPrefillChunk. Chunking never
	// changes results: every kernel is row-independent and attention
	// reads each token's own cached prefix, so the output is
	// bit-identical for any chunk size.
	PrefillChunk int
	// SharedPrefix enables shared-prefix KV reuse during prefill:
	// sequences of a wave whose prompts open with identical tokens map
	// the first sequence's cache blocks in place (refcounted,
	// copy-on-write on divergence) and skip prefilling the matched
	// tokens. Output is bit-identical with the knob on or off — the
	// mapped rows are the rows the follower would have computed.
	SharedPrefix bool
	// ExpertResidencyBytes caps the GPU-resident expert-weight pool:
	// the pager keeps this many bytes of expert FFN blocks resident
	// (rounded down to whole blocks, minimum one). <= 0 selects two
	// layers' expert sets — the computing layer plus the one being
	// prefetched behind it. That is the size at which every expert block
	// is fetched exactly once per decode step and none of it on the GPU
	// lane, provided a layer computes for as long as the next layer's
	// blocks take to copy. A wave of one or two sequences does not, and
	// is not asked to try: a layer's request stops at rows x TopK
	// blocks, all its rows can route to, and a routed block the
	// prediction left out is a demand fetch of the same bytes. More
	// keeps the layers coming up soonest resident across steps; less
	// turns the difference into demand fetches. Output is bit-identical
	// for ANY value: a routed-to expert that is not resident
	// demand-fetches synchronously, so a small budget only costs time,
	// never correctness.
	ExpertResidencyBytes int
	// Faults optionally threads a deterministic fault injector through
	// the pipeline's seams: expert-pager fetches, KV block allocation,
	// and the prefill-layer / decode-step stall points. Nil injects
	// nothing and costs nothing.
	Faults *faults.Injector
}

// DefaultPrefillChunk is the prefill token budget used when
// Config.PrefillChunk is unset: large enough that typical waves pack
// into one GEMM batch per layer, small enough to bound prefill scratch
// for long-prompt waves.
const DefaultPrefillChunk = 1024

// NewPipeline assembles the engine over explicit arenas. numSeqs is the
// decode batch N; sequences are partitioned into ⌈N/μ⌉ micro-batches.
func NewPipeline(w *Weights, gpu, pinned, cacheArena *memory.Arena, numSeqs int, cfg Config) (*Pipeline, error) {
	if numSeqs <= 0 {
		return nil, fmt.Errorf("engine: non-positive sequence count %d", numSeqs)
	}
	// The MicroBatch shorthand is a partition too: consecutive chunks of
	// μ sequences.
	parts := cfg.Partition
	if len(parts) == 0 {
		if cfg.MicroBatch <= 0 {
			return nil, fmt.Errorf("engine: need a positive micro-batch size or an explicit partition")
		}
		for s := 0; s < numSeqs; s += cfg.MicroBatch {
			mb := make([]int, min(cfg.MicroBatch, numSeqs-s))
			for i := range mb {
				mb[i] = s + i
			}
			parts = append(parts, mb)
		}
	}
	if err := validatePartition(parts, numSeqs); err != nil {
		return nil, err
	}
	layout := w.Layout
	nb := len(parts)

	// The double buffer and staging carry only the shared
	// attention/router prefix of each layer; expert FFN blocks page
	// individually through the ExpertPager below.
	table, err := paging.NewPageTable(layout.SharedFloats(), nb)
	if err != nil {
		return nil, err
	}
	db, err := paging.NewDoubleBuffer(gpu, table)
	if err != nil {
		return nil, err
	}
	staging, err := paging.NewStaging(pinned, table)
	if err != nil {
		return nil, err
	}
	cache, err := kvcache.New(cacheArena, w.Cfg.Layers, w.Cfg.KVDim(), kvcache.DefaultBlockTokens, numSeqs*cfg.MaxContext, cfg.KVDtype)
	if err != nil {
		return nil, err
	}

	hiddenRegion, err := gpu.Alloc(numSeqs * w.Cfg.Hidden)
	if err != nil {
		return nil, err
	}

	p := &Pipeline{
		w: w, layout: layout,
		gpuArena: gpu, pinnedArena: pinned,
		db: db, staging: staging, cache: cache,
		hidden:     tensor.FromSlice(numSeqs, w.Cfg.Hidden, hiddenRegion.Data()),
		logits:     make([]float32, numSeqs*w.Cfg.VocabSize),
		normedHead: make([]float32, numSeqs*w.Cfg.Hidden),
		positions:  make([]int, numSeqs),
		kern:       defaultKernels(),
	}
	// retire assigns into p.mbs: copy, so the caller's partition stays.
	p.mbs = append(p.mbs, parts...)

	maxMB := 0
	for _, mb := range p.mbs {
		if len(mb) > maxMB {
			maxMB = len(mb)
		}
	}
	p.scratch = newFFNScratch(layout, numSeqs)
	p.xPost = tensor.NewMat(numSeqs, w.Cfg.Hidden)
	p.rowOff = make([]int, nb)
	p.rowSeq = make([]int, numSeqs)
	p.xPre = tensor.NewMat(maxMB, w.Cfg.Hidden)
	p.preNormed = make([]float32, maxMB*w.Cfg.Hidden)
	p.posBuf = make([]int, maxMB)
	p.views = make([]kvcache.View, numSeqs)
	p.attnItems = make([]tensor.AttnItem, maxMB)
	p.seqErr = make([]error, numSeqs)

	q, kv := w.Cfg.QDim(), w.Cfg.KVDim()
	for _, mb := range p.mbs {
		n := len(mb)
		qg, err := gpu.Alloc(n * (q + 2*kv))
		if err != nil {
			return nil, err
		}
		ag, err := gpu.Alloc(n * q)
		if err != nil {
			return nil, err
		}
		qc, err := pinned.Alloc(n * (q + 2*kv))
		if err != nil {
			return nil, err
		}
		ac, err := pinned.Alloc(n * q)
		if err != nil {
			return nil, err
		}
		p.qkvGPU = append(p.qkvGPU, qg)
		p.qkvCPU = append(p.qkvCPU, qc)
		p.attnGPU = append(p.attnGPU, ag)
		p.attnCPU = append(p.attnCPU, ac)
	}

	p.ExpertLoad = make([][]int64, w.Cfg.Layers)
	for i := range p.ExpertLoad {
		p.ExpertLoad[i] = make([]int64, w.Cfg.Experts)
	}

	slots := layout.ResidencySlots(cfg.ExpertResidencyBytes)
	p.pager, err = paging.NewExpertPager(gpu, pinned, layout.ExpertFloats(), slots,
		func(k paging.ExpertKey) memory.Region {
			lo, hi := layout.ExpertBounds(k.Expert)
			return w.Layers[k.Layer].Slice(lo, hi)
		}, &p.Counters.ExpertPaging)
	if err != nil {
		return nil, err
	}
	p.expSrc = pagedExperts{p: p}
	p.predBuf = make([]int, 0, w.Cfg.Experts)
	p.keyBuf = make([]paging.ExpertKey, 0, 2*w.Cfg.Experts) // prefill's first request carries two layers

	p.abortCh = make(chan struct{})
	if cfg.Faults != nil {
		p.faults = cfg.Faults
		cache.SetAllocHook(cfg.Faults.KVAlloc)
		p.pager.SetFetchFault(cfg.Faults.ExpertFetch)
	}

	p.sharedPrefix = cfg.SharedPrefix
	p.prefillChunk = cfg.PrefillChunk
	if p.prefillChunk <= 0 {
		p.prefillChunk = DefaultPrefillChunk
	}
	graph, err := schedule.Build(schedule.CGOPipe, schedule.Plan{
		Layers: w.Cfg.Layers, MicroBatches: nb,
		Lookahead: cfg.Lookahead, AttnPages: p.attnPages(), LayerFFN: true,
	})
	if err != nil {
		return nil, err
	}
	p.lanes = newLaneSet(graph, p.runTask, p.fail)
	return p, nil
}

// Close shuts the worker goroutines down (the five lanes and the
// expert prefetcher, which drops the requests it has not started). The
// pipeline is unusable afterwards.
func (p *Pipeline) Close() {
	if !p.closed {
		p.lanes.close()
		p.pager.Close()
		p.closed = true
	}
}

func (p *Pipeline) fail(err error) {
	if err != nil {
		p.err.CompareAndSwap(nil, err)
	}
}

func (p *Pipeline) failed() error {
	if v := p.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// errWaveAborted is the abort reason when Abort is called with nil.
var errWaveAborted = errors.New("engine: wave aborted")

// Abort requests cooperative cancellation of the in-flight generation:
// GenerateStream returns err (or a generic abort error when nil) at
// the next prefill-layer or decode-step boundary, and any injected
// stall wakes immediately. Safe to call from any goroutine, more than
// once; the first reason wins. It cannot interrupt a lane task that is
// truly wedged mid-run — that is the server watchdog's grace-period
// case.
func (p *Pipeline) Abort(err error) {
	p.abortOnce.Do(func() {
		if err == nil {
			err = errWaveAborted
		}
		p.abortReason = err // written before close: the happens-before edge for abortedErr
		close(p.abortCh)
	})
}

// abortedErr returns the abort reason once Abort has fired, else nil.
func (p *Pipeline) abortedErr() error {
	select {
	case <-p.abortCh:
		return p.abortReason
	default:
		return nil
	}
}

// stallPoint consults the fault injector's latency seam; a fired stall
// blocks here (interruptibly — an Abort wakes it).
func (p *Pipeline) stallPoint() {
	if p.faults != nil {
		p.faults.Stall(p.abortCh)
	}
}

// ReleaseAll releases every sequence's cache blocks (idempotent — a
// sequence already retired or released is a no-op). The server calls
// it after a wave drains so KVIdle can verify the pool returned to its
// initial free count.
func (p *Pipeline) ReleaseAll() {
	for s := 0; s < p.hidden.Rows; s++ {
		p.cache.Release(s)
	}
}

// KVIdle verifies the pipeline's KV cache is back to its freshly-built
// state (every block free, no refcounts, empty prefix index): the
// wave-end leak check.
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

// laneSet executes one decode step's task graph with one worker
// goroutine per lane. The graph is bound once, at construction: tasks
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

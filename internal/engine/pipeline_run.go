package engine

import (
	"errors"
	"fmt"
	"time"

	"moelightning/internal/kvcache"
	"moelightning/internal/memory"
	"moelightning/internal/paging"
	"moelightning/internal/schedule"
	"moelightning/internal/sim"
	"moelightning/internal/tensor"
)

// Generate runs layer-wise prefill over the prompts followed by genLen
// greedy decode steps under the CGOPipe pipeline, returning the
// generated token IDs per sequence.
func (p *Pipeline) Generate(prompts [][]int, genLen int) ([][]int, error) {
	return p.GenerateStream(prompts, genLen, nil, nil)
}

// StepSink receives a generated token the moment the decode step that
// produced it completes: seq is the pipeline sequence index, index the
// token's position in that sequence's output, token the token id. It is
// called from the generation goroutine, in ascending (index, seq) order.
type StepSink func(seq, index, token int)

// StopFunc is polled at every decode-step boundary for each live
// sequence; emitted is how many tokens the sequence has produced so far.
// Returning true retires the sequence: it stops computing, its KV blocks
// return to the cache pool, and the surviving sequences' tokens are
// unchanged — attention and the MoE FFN are sequence-independent and
// bit-identical across batch shapes, so a retirement never perturbs its
// former batch-mates.
type StopFunc func(seq, emitted int) bool

// GenerateStream is Generate with serving hooks: sink (may be nil)
// observes each token as soon as its decode step completes, well before
// the wave's final step; stop (may be nil) cancels individual sequences
// mid-generation at step boundaries. Retired sequences return the tokens
// emitted before retirement.
func (p *Pipeline) GenerateStream(prompts [][]int, genLen int, sink StepSink, stop StopFunc) ([][]int, error) {
	if p.closed {
		return nil, fmt.Errorf("engine: pipeline is closed")
	}
	if p.used {
		return nil, fmt.Errorf("engine: pipeline already generated; build a fresh one per batch (the KV cache is single-shot)")
	}
	p.used = true
	if len(prompts) != p.hidden.Rows {
		return nil, fmt.Errorf("engine: %d prompts for a %d-sequence pipeline", len(prompts), p.hidden.Rows)
	}
	prefillStart := time.Now()
	err := p.prefill(prompts)
	p.PrefillDuration = time.Since(prefillStart)
	if err != nil {
		return nil, err
	}

	out := make([][]int, len(prompts))
	next := make([]int, len(prompts))
	active := make([]bool, len(prompts))
	live := 0
	for s := range prompts {
		// A sequence that exhausted the KV pool during prefill was
		// already retired there (SeqErr reports it); it emits no tokens
		// and the wave carries on with the survivors.
		if p.seqErr[s] != nil {
			continue
		}
		active[s] = true
		live++
	}
	if live == 0 {
		return out, nil
	}
	p.sampleNext(active, next)

	// Preload layer 0 before the first decode step: the shared region
	// lands synchronously in GPU slot 0 and layer 0's predicted experts
	// (hot from prefill's router statistics) go to the prefetcher.
	if err := p.primeLayer(0); err != nil {
		return nil, err
	}

	for t := 0; t < genLen; t++ {
		for s := range prompts {
			if !active[s] {
				continue
			}
			out[s] = append(out[s], next[s])
			if sink != nil {
				sink(s, t, next[s])
			}
		}
		if t == genLen-1 {
			break
		}
		// Step boundary: retire canceled or individually-finished
		// sequences before the next decode step touches them.
		if stop != nil {
			for s := range prompts {
				if active[s] && stop(s, len(out[s])) {
					p.retire(s)
					active[s] = false
					live--
				}
			}
			if live == 0 {
				break
			}
		}
		// Embed this step's tokens into the hidden state (GPU side).
		for s, tok := range next {
			if active[s] {
				copy(p.hidden.Row(s), p.w.Embedding.Row(tok))
			}
		}
		// Fault seam + cooperative abort, both at the step boundary: a
		// fired stall blocks here (woken early by Abort), and an abort
		// requested by the watchdog ends the wave before the next step.
		p.stallPoint()
		if aerr := p.abortedErr(); aerr != nil {
			return nil, aerr
		}
		if err := p.decodeStep(t); err != nil {
			return nil, err
		}
		// Retire sequences that hit KV-pool exhaustion during the step
		// before their stale hidden state can emit a token: the failure
		// is per-request (surfaced via SeqErr), the wave continues, and
		// the retirement frees the offender's blocks for the survivors.
		for s := range prompts {
			if active[s] && p.seqErr[s] != nil {
				p.retire(s)
				active[s] = false
				live--
			}
		}
		if live == 0 {
			break
		}
		p.sampleNext(active, next)
	}
	// Decode-time writes into shared history (multi-turn continuations)
	// may copy-on-write after prefill counted; refresh the tally.
	p.Counters.CowCopies.Store(p.cache.CowCopies())
	return out, nil
}

// sampleNext writes the greedy next token of every active sequence into
// next: the live hidden rows are normed into a packed buffer and meet
// the tied embedding in one GEMM. GEMM rows are independent, so each
// token is the one reference.go's row-by-row logitsFor picks.
func (p *Pipeline) sampleNext(active []bool, next []int) {
	cfg := p.w.Cfg
	n := 0
	for s, on := range active {
		if on {
			tensor.RMSNorm(p.normedHead[n*cfg.Hidden:(n+1)*cfg.Hidden], p.hidden.Row(s), p.w.FinalNorm, normEps)
			n++
		}
	}
	logits := tensor.FromSlice(n, cfg.VocabSize, p.logits[:n*cfg.VocabSize])
	tensor.MatMulTParallel(logits, tensor.FromSlice(n, cfg.Hidden, p.normedHead[:n*cfg.Hidden]), p.w.Embedding)
	n = 0
	for s, on := range active {
		if on {
			next[s] = tensor.ArgMax(logits.Row(n))
			n++
		}
	}
}

// SeqErr returns the terminal error of one sequence from the last
// generation: nil for sequences that completed (or were stopped via
// StopFunc), or the kvcache.ErrOutOfBlocks-wrapping error that retired
// it mid-wave — during prefill (it emits no tokens) or mid-decode.
// Valid once Generate/GenerateStream has returned.
func (p *Pipeline) SeqErr(s int) error {
	if s < 0 || s >= len(p.seqErr) {
		return nil
	}
	return p.seqErr[s]
}

// retire removes sequence s from its micro-batch and releases its KV
// blocks back to the cache pool. The micro-batch count — and with it the
// task-graph shape and per-step weight-page traffic — is unchanged; an
// emptied micro-batch simply computes nothing. Called from two places,
// both with no lane task in flight: between decode steps (cancellation
// and mid-decode exhaustion) and from the single-threaded prefill when
// an Append exhausts the pool — mutating p.mbs is only safe under that
// condition.
func (p *Pipeline) retire(s int) {
	for j, mb := range p.mbs {
		for i, v := range mb {
			if v == s {
				trimmed := make([]int, 0, len(mb)-1)
				trimmed = append(trimmed, mb[:i]...)
				trimmed = append(trimmed, mb[i+1:]...)
				p.mbs[j] = trimmed
				p.cache.Release(s)
				return
			}
		}
	}
}

// decodeStep executes Alg. 1 for one token position: every micro-batch
// through every layer, with the pipeline's five lanes overlapped. The
// graph was bound at construction; a step sets its inputs, runs it, and
// returns when the step completes (synchronous step boundary).
func (p *Pipeline) decodeStep(step int) error {
	p.vbase = step * p.w.Cfg.Layers // the preloaded layer 0 sits in the slot of this parity
	// Positions captured at step start; every sequence appends one
	// token per layer during the step.
	for s := range p.positions {
		p.positions[s] = p.cache.Len(s)
	}
	// Fixed for the step (sequences retire between steps): the live rows
	// and each one's place in the layer-wide post-attention workspaces.
	p.stepRows = 0
	for j, mb := range p.mbs {
		p.rowOff[j] = p.stepRows
		p.stepRows += copy(p.rowSeq[p.stepRows:], mb)
	}
	p.lanes.runStep()
	return p.failed()
}

// runTask is the engine's side of the graph: what each role of the
// CGOPipe builder does here, on the lane the builder put it on. The
// builder numbers layers and micro-batches from 1 and calls the next
// step's first layer Layers+1, so l may equal Layers for a page or a
// pin; ffn, once per layer, carries micro-batch 0. Everything a task
// needs beyond its coordinates — the step's inputs, the micro-batch's
// current members — is read when it runs: retirement replaces p.mbs[j]
// between steps.
func (p *Pipeline) runTask(t *sim.Task) error {
	l, j := t.Layer-1, t.MB-1
	v := p.vbase + l // virtual layer: the weight buffers' slots go by its parity
	switch t.Role {
	case schedule.RolePre:
		p.Counters.GPUKernels.Add(1)
		return p.runPreAttn(v, j)
	case schedule.RoleQKV:
		memory.Copy(p.qkvCPU[j], p.qkvGPU[j])
		p.Counters.DtoHBytes.Add(floatBytes(p.qkvGPU[j].Len()))
	case schedule.RoleCPUAttn:
		p.Counters.CPUAttns.Add(1)
		return p.runCPUAttn(l, j)
	case schedule.RoleLoadH:
		memory.Copy(p.attnGPU[j], p.attnCPU[j])
		p.Counters.HtoDBytes.Add(floatBytes(p.attnGPU[j].Len()))
	case schedule.RolePost:
		if j == 0 {
			// The layer's first post-attention: the previous layer's expert
			// FFN has retired (the GPU lane runs in order), so its blocks
			// are now the pager's first victims, and this layer's own FFN
			// is a micro-batch's worth of tasks away — the earliest the
			// next layer's predicted experts can be fetched without
			// displacing blocks still waiting to be used (the last layer
			// wraps to layer 0 of the next step), and the most time the
			// copies get. Runs even when micro-batch 0 has emptied, on the
			// GPU lane, the sole writer of the router statistics it reads.
			p.beginLayer(l, p.stepRows)
		}
		p.Counters.GPUKernels.Add(1)
		p.runPostRoute(v, j)
	case schedule.RoleFFN:
		p.Counters.GPUKernels.Add(1)
		p.runExpertFFN(l)
	case schedule.RolePage:
		return p.runPage(v, j)
	case schedule.RolePin:
		return p.runPin(v, j)
	default:
		return fmt.Errorf("engine: no binding for role %d", t.Role)
	}
	return nil
}

// attnPages returns how many leading pages cover the attention
// projections (what pre-attention must wait for).
func (p *Pipeline) attnPages() int {
	table := p.db.Table()
	need := p.layout.AttnFloats()
	covered := 0
	for pg := 0; pg < table.NumPages; pg++ {
		covered += table.PageSize(pg)
		if covered >= need {
			return pg + 1
		}
	}
	return table.NumPages
}

// runPreAttn executes the pre-attention kernel for micro-batch j using
// the GPU-resident weights of virtual layer v. The x staging buffer and
// position buffer are pipeline-owned: GPU-lane tasks are serialized, so
// sharing them across micro-batches is race-free.
func (p *Pipeline) runPreAttn(v, j int) error {
	mb := p.mbs[j]
	n := len(mb)
	if n == 0 {
		return nil // every sequence of this micro-batch was retired
	}
	shared := p.db.Slot(v).Data()
	cfg := p.w.Cfg
	q, kv := cfg.QDim(), cfg.KVDim()
	qkv := p.qkvGPU[j].Data()[:n*(q+2*kv)]
	x := tensor.FromSlice(n, cfg.Hidden, p.xPre.Data[:n*cfg.Hidden])
	pos := p.posBuf[:n]
	for i, s := range mb {
		copy(x.Row(i), p.hidden.Row(s))
		pos[i] = p.positions[s]
	}
	p.kern.preAttn(p.layout, shared, x, pos, qkv, p.preNormed)
	return nil
}

// runCPUAttn appends the offloaded K/V to the cache and computes
// attention for the micro-batch on the CPU worker, reading the paged
// cache in place: each sequence's context is a list of block views
// (kvcache.View) that the blockwise attention kernel walks directly,
// with no gathered copy. Appends mutate the cache's
// bookkeeping maps and stay serial; the attention itself fans out
// across the micro-batch's sequences on the shared worker pool (each
// sequence is an independent problem over read-only cache state).
//
// A sequence whose Append exhausts the block pool is marked in seqErr
// and skipped for the rest of the step rather than failing the wave;
// GenerateStream retires it at the step boundary.
func (p *Pipeline) runCPUAttn(layer, j int) error {
	mb := p.mbs[j]
	n := len(mb)
	if n == 0 {
		return nil
	}
	cfg := p.w.Cfg
	q, kv := cfg.QDim(), cfg.KVDim()
	Q, K, V := qkvViews(p.qkvCPU[j].Data()[:n*(q+2*kv)], n, q, kv)
	out := p.attnCPU[j].Data()
	live := 0
	for i, s := range mb {
		if p.seqErr[s] != nil {
			continue // failed earlier this step; retired at the boundary
		}
		if err := p.cache.Append(s, layer, K.Row(i), V.Row(i)); err != nil {
			if errors.Is(err, kvcache.ErrOutOfBlocks) {
				p.seqErr[s] = err
				continue
			}
			return err
		}
		p.cache.View(s, layer, &p.views[s])
		p.attnItems[live] = p.views[s].AttnItem(out[i*q:(i+1)*q], Q.Row(i))
		live++
	}
	p.kern.attend(p.attnItems[:live], cfg.QHeads, cfg.KVHeads, cfg.HeadDim)
	return nil
}

// runPostRoute is post(l, j): the O projection, residual and router for
// micro-batch j, from the shared weights of virtual layer v in the
// double buffer, into the micro-batch's rows of the layer-wide
// workspaces (xPost, scratch). It writes nothing back: the hidden state
// takes the rows once the layer's expert FFN has added to them.
func (p *Pipeline) runPostRoute(v, j int) {
	mb := p.mbs[j]
	n := len(mb)
	if n == 0 {
		return
	}
	cfg := p.w.Cfg
	off := p.rowOff[j]
	attn := tensor.FromSlice(n, cfg.QDim(), p.attnGPU[j].Data()[:n*cfg.QDim()])
	x := tensor.FromSlice(n, cfg.Hidden, p.xPost.Data[off*cfg.Hidden:(off+n)*cfg.Hidden])
	for i, s := range mb {
		copy(x.Row(i), p.hidden.Row(s))
	}
	p.kern.route(p.layout, p.db.Slot(v).Data(), attn, x, p.scratch, off)
}

// runExpertFFN is ffn(l): the layer's expert FFN over the step's live
// rows, every micro-batch's together, and the write-back of the updated
// hidden states. Expert blocks come from the pager, each routed expert
// acquired once; a miss demand-fetches synchronously so routing is
// always honored.
func (p *Pipeline) runExpertFFN(layer int) {
	cfg := p.w.Cfg
	rows := p.rowSeq[:p.stepRows]
	x := tensor.FromSlice(len(rows), cfg.Hidden, p.xPost.Data[:len(rows)*cfg.Hidden])
	p.expSrc.layer = layer
	chosen := p.kern.ffn(p.layout, &p.expSrc, x, p.scratch)
	// An expert whose weights could not be fetched (past the pager's
	// retry budget) fails exactly the sequences routed to it, whichever
	// micro-batch they sit in — marked before the writeback below so
	// their corrupt rows never touch the hidden state.
	if p.scratch.expertErr != nil {
		p.failExpertRouted(layer, chosen, rows, p.scratch)
	}
	for r, s := range rows {
		// A sequence that exhausted the KV pool (or lost an expert)
		// earlier this step carries stale rows: don't let them touch
		// the hidden state or the expert-load statistics (it is retired
		// at the step boundary).
		if p.seqErr[s] != nil {
			continue
		}
		copy(p.hidden.Row(s), x.Row(r))
		for _, e := range chosen[r] {
			p.ExpertLoad[layer][e]++
		}
	}
}

// failExpertRouted marks seqErr for every sequence whose routed expert
// set intersects scratch.failedExperts: their FFN output is missing a
// contribution, so they retire at the next step boundary (decode) or
// are retired by the caller (prefill). Row i of the batch belongs to
// sequence rowSeq[i]: the step's row map in decode, the packed chunk's
// in prefill.
func (p *Pipeline) failExpertRouted(layer int, chosen [][]int, rowSeq []int, scratch *ffnScratch) {
	failed := make(map[int]bool, len(scratch.failedExperts))
	for _, e := range scratch.failedExperts {
		failed[e] = true
	}
	for i, s := range rowSeq {
		if p.seqErr[s] != nil {
			continue
		}
		for _, e := range chosen[i] {
			if failed[e] {
				p.seqErr[s] = fmt.Errorf("engine: expert %d weights unavailable (layer %d): %w", e, layer, scratch.expertErr)
				break
			}
		}
	}
}

// runPin copies page pg of the layer backing virtual layer v from CPU
// memory into pinned staging.
func (p *Pipeline) runPin(v, pg int) error {
	layer := p.realLayer(v)
	lo, hi := p.db.Table().PageBounds(pg)
	src := p.w.Layers[layer].Slice(lo, hi)
	dst := p.staging.PageRegion(v, pg)
	memory.Copy(dst, src)
	p.Counters.PinBytes.Add(floatBytes(dst.Len()))
	return nil
}

// runPage ships page pg of virtual layer v from pinned staging into the
// GPU double buffer. Every shipped page counts toward PagesMoved here,
// so the async decode path and the synchronous loads agree on page
// accounting.
func (p *Pipeline) runPage(v, pg int) error {
	src := p.staging.PageRegion(v, pg)
	dst := p.db.PageRegion(v, pg)
	memory.Copy(dst, src)
	p.Counters.HtoDBytes.Add(floatBytes(dst.Len()))
	p.Counters.PagesMoved.Add(1)
	return nil
}

// realLayer maps a virtual layer index to the model layer it carries.
func (p *Pipeline) realLayer(v int) int {
	return v % p.w.Cfg.Layers
}

// loadSharedSync copies virtual layer v's shared region into the double
// buffer through staging, synchronously, via the same runPin/runPage
// steps the decode lanes schedule (setup and prefill use it).
func (p *Pipeline) loadSharedSync(v int) error {
	table := p.db.Table()
	for pg := 0; pg < table.NumPages; pg++ {
		if err := p.runPin(v, pg); err != nil {
			return err
		}
		if err := p.runPage(v, pg); err != nil {
			return err
		}
	}
	return nil
}

// primeLayer stages virtual layer v the way the engine does between
// phases: the shared region lands synchronously and the layer's
// predicted expert set goes to the prefetcher (after prefill the pager
// still has the last layer announced, so what makes room is the layer
// before it). GenerateStream's preload and the benchmark baselines
// share this path.
func (p *Pipeline) primeLayer(v int) error {
	if err := p.loadSharedSync(v); err != nil {
		return err
	}
	p.prefetchExperts(p.liveRows(), p.realLayer(v))
	return nil
}

// liveRows is the number of sequences still generating: the token rows
// every layer of a decode step routes. Micro-batches only change
// between steps and inside the single-threaded prefill.
func (p *Pipeline) liveRows() int {
	n := 0
	for _, mb := range p.mbs {
		n += len(mb)
	}
	return n
}

// pagedExperts adapts the expert pager to the expertSource interface
// expertFFN consumes, for one real layer at a time.
type pagedExperts struct {
	p     *Pipeline
	layer int
}

func (s *pagedExperts) Acquire(e int) (gate, up, down tensor.Mat, err error) {
	block, err := s.p.pager.Acquire(paging.ExpertKey{Layer: s.layer, Expert: e})
	if err != nil {
		// The caller (expertFFN) skips the expert without touching
		// the matrices or calling Release.
		return tensor.Mat{}, tensor.Mat{}, tensor.Mat{}, err
	}
	gate, up, down = s.p.layout.ExpertWeights(block)
	return gate, up, down, nil
}

func (s *pagedExperts) Release(e int) {
	s.p.pager.Release(paging.ExpertKey{Layer: s.layer, Expert: e})
}

// predictExperts returns up to n expert ids of real layer `layer`,
// most-frequently-routed first per the cumulative router statistics
// (ties and the cold start resolve to ascending id). The returned slice
// is p.predBuf; callers don't retain it. An insertion sort in place: it
// runs on the GPU lane once per layer per step and must not allocate.
func (p *Pipeline) predictExperts(layer, n int) []int {
	load := p.ExpertLoad[layer]
	ids := p.predBuf[:0]
	for e := range load {
		i := len(ids)
		ids = append(ids, e)
		for ; i > 0 && load[ids[i-1]] < load[e]; i-- {
			ids[i] = ids[i-1]
		}
		ids[i] = e
	}
	if n < len(ids) {
		ids = ids[:n]
	}
	p.predBuf = ids
	return ids
}

// beginLayer tells the pager real layer `layer` starts computing and
// hands it the next layer's predicted experts (the last layer wraps to
// layer 0), for a next layer of `rows` token rows. Decode calls it once
// per layer per step, prefill once per layer.
func (p *Pipeline) beginLayer(layer, rows int) {
	p.pager.BeginLayer(layer, p.w.Cfg.Layers)
	p.prefetchExperts(rows, p.realLayer(layer+1))
}

// prefetchExperts hands the predicted expert sets of the given real
// layers, in that order, to the pager's background worker. Per layer
// that is at most half the residency pool, so prefetches for the next
// layer never crowd out the experts the current layer is still using —
// nothing at all for a pool of one block, which the current layer's
// first demand fetch would take back before the next layer could read
// it — and at most rows x TopK blocks, all that a layer of `rows` token
// rows can route to. Without the second limit a wave of one or two
// sequences asks for every expert of every layer: its layers compute in
// less time than those blocks take to copy, so the worker would copy
// flat out for the whole wave, next to the lanes, blocks that are mostly
// never read. Best effort — a block the worker does not reach in time,
// or that the prediction left out, is covered by the demand-fetch
// fallback.
func (p *Pipeline) prefetchExperts(rows int, layers ...int) {
	n := p.pager.Slots() / 2
	if n > p.w.Cfg.Experts {
		n = p.w.Cfg.Experts
	}
	if routable := rows * p.w.Cfg.TopK; n > routable {
		n = routable
	}
	keys := p.keyBuf[:0]
	for _, layer := range layers {
		for _, e := range p.predictExperts(layer, n) {
			keys = append(keys, paging.ExpertKey{Layer: layer, Expert: e})
		}
	}
	p.keyBuf = keys
	p.pager.Prefetch(keys...)
}

package engine

import (
	"context"
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

// Generate runs the prompt phase over the prompts followed by genLen
// greedy decode steps under the CGOPipe pipeline, returning the
// generated token IDs per sequence.
func (p *Pipeline) Generate(prompts [][]int, genLen int) ([][]int, error) {
	return p.GenerateStream(prompts, genLen, nil, nil)
}

// StepSink receives each generated token: seq is the pipeline sequence
// index, index the token's position in that sequence's output, token the
// token id. It is called from the generation goroutine, in ascending
// (index, seq) order. Every sequence's index 0 arrives once the prompt
// phase is over — a prompt that ends in an early prompt pass holds its
// first token until the last prompt pass completes — so the first call
// marks the end of the prompt phase (bench/wave.go times the phase by
// it); each later index arrives as the decode step that produced it
// completes.
type StepSink func(seq, index, token int)

// StopFunc is polled at every decode-step boundary for each live
// sequence; emitted is how many tokens the sequence has produced so far.
// Returning true retires the sequence: it stops computing, its KV blocks
// return to the cache pool, and the surviving sequences' tokens are
// unchanged — attention and the MoE FFN are sequence-independent and
// bit-identical across batch shapes, so a retirement never perturbs its
// former batch-mates.
type StopFunc func(seq, emitted int) bool

// GenerateStream is Generate with serving hooks: Run over the prompts
// chunked into micro-batches of Config.MicroBatch.
func (p *Pipeline) GenerateStream(prompts [][]int, genLen int, sink StepSink, stop StopFunc) ([][]int, error) {
	return p.Run(context.Background(), prompts, nil, genLen, sink, stop)
}

// Run generates for one run of up to the pipeline's capacity of
// sequences: prompts[s] is sequence s, and partition lists the
// micro-batches as sequence indices, each exactly once (the Alg. 2
// batcher's placement; nil is Generate's chunks). sink (may be nil)
// observes the tokens as StepSink says, well before the run's final
// step; stop (may be nil) cancels individual sequences mid-generation
// at step boundaries. Run is begin plus one loop of pass() — one planner
// lays out every pass, prompt pass or decode step — each followed by one
// epilogue: the sequences that failed in the pass retire, then the rows
// that end a prompt or decode sample; once the prompt phase is over it
// also records the phase's totals (once), emits a token per live
// sequence and, unless that was the last, polls stop. Retired sequences
// return the tokens emitted before retirement. Its sequences keep their
// KV blocks until ReleaseAll or the next run.
//
// ctx bounds the run: once it is done, Run returns context.Cause(ctx) at
// the next pass boundary, and an injected stall wakes at once. That is
// enough to end any run, because every other wait reachable from a pass
// is bounded: lane tasks are kernels and memory copies; an expert fetch
// retries at most 4 times with backoff capped at 400 µs; Acquire waits
// only on a fetch in flight and panics rather than waits when every slot
// is pinned; the KV alloc hook returns an error; sink and stop must not
// block (the server's push into a buffered channel, its stop a cancel
// poll and a count); and the lanes wait only on the builder's graph,
// which schedule's TestEngineGraphsRun runs to completion on in-order
// lanes for every shape. A run that did not end would be a bug, not a
// condition to recover from.
func (p *Pipeline) Run(ctx context.Context, prompts, partition [][]int, genLen int, sink StepSink, stop StopFunc) ([][]int, error) {
	if p.closed {
		return nil, fmt.Errorf("engine: pipeline is closed")
	}
	for s, prompt := range prompts {
		if len(prompt) == 0 {
			return nil, fmt.Errorf("engine: empty prompt for sequence %d", s)
		}
	}
	if err := p.begin(prompts, partition); err != nil {
		return nil, err
	}
	out := make([][]int, len(prompts))
	retired, live := make([]bool, len(prompts)), len(prompts)
	retire := func(s int) {
		if !retired[s] {
			p.retire(s)
			retired[s] = true
			live--
		}
	}
	start := time.Now()
	// t is the output index the next emission fills: 0 until the prompt
	// phase is over.
	for t := 0; live > 0; {
		if err := p.pass(ctx); err != nil {
			if t == 0 {
				p.PrefillDuration = time.Since(start)
			}
			return nil, err
		}
		// Pass boundary: retire the sequences that failed in the pass (KV
		// exhaustion, a lost expert) before their stale hidden state can
		// emit a token. The failure is per-request (surfaced via SeqErr), the
		// wave carries on with the survivors, and a sequence that failed in
		// a prompt pass emits no tokens at all.
		for s, err := range p.seqErr {
			if err != nil {
				retire(s)
			}
		}
		p.sampleNext()
		if p.prompting() {
			continue
		}
		if t == 0 {
			p.promptTotals(time.Since(start))
		}
		if t < genLen {
			for s := range out {
				if !retired[s] {
					out[s] = append(out[s], p.next[s])
					if sink != nil {
						sink(s, t, p.next[s])
					}
				}
			}
			t++
		}
		if t >= genLen {
			break
		}
		// Step boundary: retire canceled or individually-finished
		// sequences before the next decode step touches them.
		if stop != nil {
			for s := range out {
				if !retired[s] && stop(s, len(out[s])) {
					retire(s)
				}
			}
		}
	}
	return out, nil
}

// sampleNext writes into p.next the greedy next token of every sequence
// whose row in the pass just run emits one: a row at or past its
// prompt's last token — every row of a decode step, a prompt's last row
// — of a sequence that did not fail in the pass. Those rows are normed
// into a packed buffer and meet the tied embedding in one GEMM. GEMM
// rows are independent, so each token is the one reference.go's
// row-by-row logitsFor picks.
func (p *Pipeline) sampleNext() {
	cfg := p.w.Cfg
	rows := p.rowSeq[:p.rowOff[len(p.mbs)]]
	n := 0
	for r, s := range rows {
		if p.emits(r, s) {
			tensor.RMSNorm(p.normedHead[n*cfg.Hidden:(n+1)*cfg.Hidden], p.hidden.Row(r), p.w.FinalNorm, normEps)
			n++
		}
	}
	if n == 0 {
		return
	}
	logits := tensor.FromSlice(n, cfg.VocabSize, p.logits[:n*cfg.VocabSize])
	tensor.MatMulTParallel(logits, tensor.FromSlice(n, cfg.Hidden, p.normedHead[:n*cfg.Hidden]), p.w.Embedding)
	n = 0
	for r, s := range rows {
		if p.emits(r, s) {
			p.next[s] = tensor.ArgMax(logits.Row(n))
			n++
		}
	}
}

// emits reports whether row r, of sequence s, produces s's next token.
func (p *Pipeline) emits(r, s int) bool {
	return p.seqErr[s] == nil && p.rowPos[r] >= len(p.prompts[s])-1
}

// SeqErr returns the terminal error of one sequence from the last
// run: nil for sequences that completed (or were stopped via
// StopFunc), or the kvcache.ErrOutOfBlocks-wrapping error that retired
// it mid-run — during prefill (it emits no tokens) or mid-decode.
// Valid once Run has returned.
func (p *Pipeline) SeqErr(s int) error {
	if s < 0 || s >= len(p.seqErr) {
		return nil
	}
	return p.seqErr[s]
}

// retire removes sequence s from its micro-batch and releases its KV
// blocks back to the cache pool. The micro-batch count — and with it the
// task-graph shape and per-pass weight-page traffic — is unchanged; an
// emptied micro-batch simply computes nothing. Called only at a pass
// boundary, with no lane task in flight (Run's epilogue: cancellation and
// mid-pass failures) — mutating p.mbs is only safe under that condition.
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

// plan lays out the run's next pass, prompt pass or decode step: the
// one planner of both. Walking the live sequences in issue order —
// micro-batch order, then order within the micro-batch — each continues
// from spanHi. While any live prompt has tokens left, each continues its
// prompt until the pass holds prefillChunk rows, so the passes slice the
// wave's prompt tokens in issue order and no sequence starts before every
// sequence ahead of it has finished its prompt; a sequence whose prompt
// is done waits, so no decode row joins a prompt pass. Otherwise each
// takes one row, its next token at its next position: a decode step.
// Micro-batch j's rows run from rowOff[j] on, in partition order, one per
// position, and each embeds its token into hidden: a prompt token, or
// past the prompt the sequence's next token.
//
// The prompt phase is thus passes of the bound step graph (the zigzag
// order of §4): each carries up to PrefillChunk of the wave's prompt
// tokens as rows, each with its own position and owning sequence, and
// runs every layer over them exactly as a decode step runs its one row
// per sequence: a QKV GEMM batch per micro-batch, K/V offloaded to the
// CPU cache (prefill KV offloading, §4) and causal attention over each
// sequence's cached prefix on the CPU lane, the router per micro-batch,
// and one expert-grouped FFN per layer that buckets tokens by expert
// ACROSS sequences — so a wave of short prompts runs large GEMM triples
// instead of numSeqs x layers skinny ones. All kernels are
// row-independent and accumulate in fixed k-ascending /
// expert-id-ascending order, so the packed shapes are bit-identical to
// reference.go's token-at-a-time forward under both codecs and any chunk
// size.
//
// A prompt longer than one pass runs chunk-outer and layer-inner: the
// next pass continues it, every layer again. That is bit-identical too,
// because rows are independent and each token's causal attention reads
// the prefix earlier passes cached; what it costs is one more sweep of
// every layer's expert weights per pass.
//
// A sequence that exhausts the KV block pool or loses an expert mid-pass
// is marked in seqErr, and its rows ride along without write-back or
// counting, in prompt passes as in decode (a KV failure hands its blocks
// back at once). It retires at the pass boundary, never with lanes
// running: prefill fails only the offending request, never the wave.
//
// Sequences whose prompts open with the same whole blocks of tokens as
// one earlier in issue order, or as blocks an earlier run's prompts left
// cached, skip the matched prefix entirely: begin starts their spans
// past it and maps a cached prefix at once, and at a follower's first
// computed token the donor's cache blocks are mapped in place
// (refcount++, zero copies, zero FLOPs). Attention reads the shared
// prefix through the same block views as everything else; because the
// K/V rows for a prefix token depend only on the token ids up to it and
// their positions, the mapped rows are bit-identical to the rows the
// sequence would have computed, so sharing changes no output bit under
// either codec.
//
// After every pass Run samples (sampleNext): a prompt whose last token
// was in the pass takes its first token from that row, which seeds its
// decode.
func (p *Pipeline) plan() {
	prompting := p.prompting()
	budget, rest, live, n := p.prefillChunk, 0, 0, 0
	for j, mb := range p.mbs {
		p.rowOff[j] = n
		for _, s := range mb {
			p.spanLo[s] = p.spanHi[s]
			take := 1
			if prompting {
				left := len(p.prompts[s]) - p.spanLo[s]
				take = min(left, budget)
				budget -= take
				rest += left - take
			}
			p.spanHi[s] = p.spanLo[s] + take
			for t := p.spanLo[s]; t < p.spanHi[s]; t++ {
				tok := p.next[s]
				if t < len(p.prompts[s]) {
					tok = p.prompts[s][t]
				}
				p.rowSeq[n], p.rowPos[n] = s, t
				copy(p.hidden.Row(n), p.w.Embedding.Row(tok))
				n++
			}
			live++
		}
	}
	p.rowOff[len(p.mbs)] = n
	// The pass after this one routes what is left of the prompts or, after
	// the last prompt pass, a decode step's row per live sequence (some
	// may retire at the boundary: at most this many).
	p.nextRows = min(rest, p.prefillChunk)
	if rest == 0 {
		p.nextRows = live
	}
}

// prompting reports whether a live sequence has prompt tokens left:
// whether the run is still in its prompt phase.
func (p *Pipeline) prompting() bool {
	for _, mb := range p.mbs {
		for _, s := range mb {
			if p.spanHi[s] < len(p.prompts[s]) {
				return true
			}
		}
	}
	return false
}

// pass plans the run's next pass and runs it: every micro-batch through
// every layer over the rows plan laid out, with the pipeline's five lanes
// overlapped. The graph was bound before the run; a pass sets its
// weight-buffer base, runs it, and returns when the pass completes
// (synchronous pass boundary). Only layer 0 of the run's first pass is
// staged outside the graph (primeLayer): every pass pages in the next
// one's layer 0 and fetches its predicted experts, so the first decode
// step needs no preload either.
func (p *Pipeline) pass(ctx context.Context) error {
	p.plan()
	if p.passes == 0 {
		if err := p.primeLayer(0); err != nil {
			return err
		}
	}
	// The pass boundary: a fired stall blocks here until it ends or ctx is
	// done, and a done ctx ends the run before the pass.
	p.faults.Stall(ctx.Done())
	if err := context.Cause(ctx); err != nil {
		return err
	}
	p.vbase = p.passes * p.w.Cfg.Layers // the previous pass paged this pass's layer 0 into the slot of its parity
	p.passes++
	p.lanes.runStep()
	return p.failed()
}

// runTask is the engine's side of the graph: what each role of the
// CGOPipe builder does here, on the lane the builder put it on. The
// builder numbers layers and micro-batches from 1 and calls the next
// pass's first layer Layers+1, so l may equal Layers for a page, a pin
// or an expert share; ffn, once per layer, carries micro-batch 0.
// Everything a task needs beyond its coordinates — the pass's rows, the
// micro-batch's current members — is read when it runs: retirement
// replaces p.mbs[j] between passes.
func (p *Pipeline) runTask(t *sim.Task) error {
	l, j := t.Layer-1, t.MB-1
	v := p.vbase + l // virtual layer: the weight buffers' slots go by its parity
	cfg := p.w.Cfg
	switch t.Role {
	case schedule.RolePre:
		p.Counters.GPUKernels.Add(1)
		p.runPreAttn(v, j)
	case schedule.RoleQKV:
		// Counted where it lands: the K/V bytes the cache stores, at the
		// append.
		w := cfg.QDim() + 2*cfg.KVDim()
		memory.Copy(p.rowsOf(p.qkvCPU, w, j), p.rowsOf(p.qkvGPU, w, j))
	case schedule.RoleCPUAttn:
		p.Counters.CPUAttns.Add(1)
		return p.runCPUAttn(l, j)
	case schedule.RoleLoadH:
		dst := p.rowsOf(p.attnGPU, cfg.QDim(), j)
		memory.Copy(dst, p.rowsOf(p.attnCPU, cfg.QDim(), j))
		p.Counters.HtoDBytes.Add(floatBytes(dst.Len()))
	case schedule.RolePost:
		if j == 0 {
			// The layer's first post-attention: the previous layer's expert
			// FFN has retired (the GPU lane runs in order), so announcing
			// this layer makes that layer's blocks the pager's first
			// victims. Every expert share of the next layer waits for this
			// task, so none displaces a block still waiting to be used. Runs
			// even when micro-batch 0 has emptied.
			p.pager.BeginLayer(l, cfg.Layers)
		}
		p.Counters.GPUKernels.Add(1)
		p.runPostRoute(v, j)
	case schedule.RoleFFN:
		p.Counters.GPUKernels.Add(1)
		p.runExpertFFN(l)
	case schedule.RoleExperts:
		// Layer l's blocks, l == Layers being the next pass's layer 0,
		// sized by the rows that pass routes: after the last prompt pass,
		// the decode step's live rows, not this pass's token count.
		rows := p.rowOff[len(p.mbs)]
		if l == cfg.Layers {
			rows = p.nextRows
		}
		p.fetchExperts(p.realLayer(l), rows, j, len(p.mbs))
	case schedule.RolePage:
		return p.runPage(v, j)
	case schedule.RolePin:
		return p.runPin(v, j)
	default:
		return fmt.Errorf("engine: no binding for role %d", t.Role)
	}
	return nil
}

// rowsOf is micro-batch j's rows of a row-major transfer region whose
// rows are width floats.
func (p *Pipeline) rowsOf(r memory.Region, width, j int) memory.Region {
	return r.Slice(p.rowOff[j]*width, p.rowOff[j+1]*width)
}

// rowRange is rows [lo, hi) of m.
func rowRange(m tensor.Mat, lo, hi int) tensor.Mat {
	return tensor.FromSlice(hi-lo, m.Cols, m.Data[lo*m.Cols:hi*m.Cols])
}

// attnPages returns how many leading pages of table cover the need
// floats of attention projections (what pre-attention must wait for).
func attnPages(table paging.PageTable, need int) int {
	covered := 0
	for pg := 0; pg < table.NumPages; pg++ {
		covered += table.PageSize(pg)
		if covered >= need {
			return pg + 1
		}
	}
	return table.NumPages
}

// runPreAttn executes the pre-attention kernel for micro-batch j's rows
// using the GPU-resident weights of virtual layer v, reading the rows of
// hidden in place. The norm rows are pipeline-owned: GPU-lane tasks are
// serialized, so sharing them across micro-batches is race-free.
func (p *Pipeline) runPreAttn(v, j int) {
	lo, hi := p.rowOff[j], p.rowOff[j+1]
	if lo == hi {
		return // every sequence of this micro-batch was retired, or is done with its prompt
	}
	cfg := p.w.Cfg
	qkv := p.rowsOf(p.qkvGPU, cfg.QDim()+2*cfg.KVDim(), j).Data()
	preAttention(p.layout, p.db.Slot(v).Data(), rowRange(p.hidden, lo, hi), p.rowPos[lo:hi], qkv, p.preNormed)
}

// runCPUAttn appends the micro-batch's offloaded K/V to the cache and
// computes its attention on the CPU worker, reading the paged cache in
// place: each sequence's context is a list of block views
// (kvcache.View) that the blockwise kernels walk directly, with no
// gathered copy. A sequence's rows are its span of the pass: one row in
// a decode step, attended as a single token; a run of prompt tokens,
// each attending causally over its cached prefix. Appends mutate the
// cache's bookkeeping maps and stay serial; the attention itself fans
// out across the micro-batch's tokens on the shared worker pool (each
// is an independent problem over read-only cache state).
//
// A sequence whose Append exhausts the block pool is marked in seqErr
// and skipped for the rest of the pass rather than failing the wave.
// Its blocks go back to the pool at once — the CPU lane is the cache's
// only user during a pass — so the sequences after it can still append;
// it retires at the pass boundary.
func (p *Pipeline) runCPUAttn(layer, j int) error {
	lo, hi := p.rowOff[j], p.rowOff[j+1]
	if lo == hi {
		return nil
	}
	cfg := p.w.Cfg
	q, kv := cfg.QDim(), cfg.KVDim()
	Q, K, V := qkvViews(p.rowsOf(p.qkvCPU, q+2*kv, j).Data(), hi-lo, q, kv)
	out := tensor.FromSlice(hi-lo, q, p.rowsOf(p.attnCPU, q, j).Data())
	items, causal := p.attnItems[:0], p.causalItems[:0]
	r := 0
	for _, s := range p.mbs[j] {
		r0, n := r, p.spanHi[s]-p.spanLo[s]
		r += n
		if n == 0 || p.seqErr[s] != nil {
			continue // failed earlier this pass; retired at the boundary
		}
		if err := p.appendSpan(s, layer, K, V, r0, n); err != nil {
			if !errors.Is(err, kvcache.ErrOutOfBlocks) {
				return err
			}
			p.seqErr[s] = err
			p.cache.Release(s)
			continue
		}
		p.cache.View(s, layer, &p.views[s])
		if n == 1 {
			items = append(items, p.views[s].AttnItem(out.Row(r0), Q.Row(r0)))
		} else {
			causal = append(causal, p.views[s].CausalItem(rowRange(out, r0, r0+n), rowRange(Q, r0, r0+n), p.spanLo[s]))
		}
	}
	tensor.AttendMany(items, cfg.QHeads, cfg.KVHeads, cfg.HeadDim)
	tensor.AttendCausalMany(causal, cfg.QHeads, cfg.KVHeads, cfg.HeadDim)
	return nil
}

// appendSpan appends rows [r0, r0+n) of K and V, sequence s's span of
// the pass, to its cache stream at one layer (the cache quantizes on
// write under an Int8 codec). A span that opens at the first computed
// token of a sequence with a donor first maps its planned shared prefix
// in: the donor precedes it in issue order (planPrefixReuse) and the CPU
// lane runs cattn in issue order, so the donor's whole prompt at this
// layer is appended and indexed by now. The span that completes a
// prompt indexes the prompt's full blocks at the layer, for wave-mates
// behind it and, once released, for later runs.
func (p *Pipeline) appendSpan(s, layer int, K, V tensor.Mat, r0, n int) error {
	if p.donor[s] >= 0 && p.spanLo[s] == p.skip[s] {
		if err := p.attachPrefix(s, layer); err != nil {
			return err
		}
	}
	for r := r0; r < r0+n; r++ {
		if err := p.cache.Append(s, layer, K.Row(r), V.Row(r)); err != nil {
			return err
		}
		p.Counters.DtoHBytes.Add(int64(p.cache.TokenBytes()))
	}
	if p.spanHi[s] == len(p.prompts[s]) {
		p.cache.IndexPrefix(s, layer, p.prompts[s])
	}
	return nil
}

// runPostRoute is post(l, j): the O projection, residual and router for
// micro-batch j's rows, from the shared weights of virtual layer v in
// the double buffer, into the same rows of the layer-wide workspaces
// (xPost, scratch). It writes nothing back: hidden takes the rows once
// the layer's expert FFN has added to them.
func (p *Pipeline) runPostRoute(v, j int) {
	lo, hi := p.rowOff[j], p.rowOff[j+1]
	if lo == hi {
		return
	}
	x := rowRange(p.xPost, lo, hi)
	copy(x.Data, rowRange(p.hidden, lo, hi).Data)
	attn := tensor.FromSlice(hi-lo, p.w.Cfg.QDim(), p.rowsOf(p.attnGPU, p.w.Cfg.QDim(), j).Data())
	postRoute(p.layout, p.db.Slot(v).Data(), attn, x, p.scratch, lo)
}

// runExpertFFN is ffn(l): the layer's expert FFN over the pass's rows,
// every micro-batch's together, and the write-back into hidden. Expert
// blocks come from the pager, each routed expert acquired once; a miss
// demand-fetches synchronously so routing is always honored.
func (p *Pipeline) runExpertFFN(layer int) {
	rows := p.rowSeq[:p.rowOff[len(p.mbs)]]
	x := rowRange(p.xPost, 0, len(rows))
	p.expSrc.layer = layer
	chosen := expertFFN(p.layout, p.experts, x, p.scratch)
	// An expert whose weights could not be fetched (past the pager's
	// retry budget) fails exactly the sequences routed to it, whichever
	// micro-batch they sit in — marked before the writeback below so
	// their corrupt rows never touch the hidden state.
	if p.scratch.expertErr != nil {
		p.failExpertRouted(layer, chosen)
	}
	for r, s := range rows {
		// A sequence that exhausted the KV pool (or lost an expert)
		// earlier this pass carries stale rows: don't let them touch
		// the hidden state or the expert-load statistics (it is retired
		// at the pass boundary).
		if p.seqErr[s] != nil {
			continue
		}
		copy(p.hidden.Row(r), x.Row(r))
		for _, e := range chosen[r] {
			p.ExpertLoad[layer][e]++
		}
	}
}

// failExpertRouted marks seqErr for every sequence with a row routed to
// an expert of scratch.failedExperts: its FFN output is missing a
// contribution, so it retires at the pass boundary. Row r of the pass
// belongs to sequence rowSeq[r].
func (p *Pipeline) failExpertRouted(layer int, chosen [][]int) {
	scratch := p.scratch
	failed := make(map[int]bool, len(scratch.failedExperts))
	for _, e := range scratch.failedExperts {
		failed[e] = true
	}
	for r, s := range p.rowSeq[:len(chosen)] {
		if p.seqErr[s] != nil {
			continue
		}
		for _, e := range chosen[r] {
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
	lo, hi := p.table.PageBounds(pg)
	src := p.w.Layers[layer].Slice(lo, hi)
	dst := p.staging.PageRegion(p.table, v, pg)
	memory.Copy(dst, src)
	p.Counters.PinBytes.Add(floatBytes(dst.Len()))
	return nil
}

// runPage ships page pg of virtual layer v from pinned staging into the
// GPU double buffer. Every shipped page counts toward PagesMoved here,
// so the lanes and the synchronous prime agree on page accounting.
func (p *Pipeline) runPage(v, pg int) error {
	src := p.staging.PageRegion(p.table, v, pg)
	dst := p.db.PageRegion(p.table, v, pg)
	memory.Copy(dst, src)
	p.Counters.HtoDBytes.Add(floatBytes(dst.Len()))
	p.Counters.PagesMoved.Add(1)
	return nil
}

// realLayer maps a virtual layer index to the model layer it carries.
func (p *Pipeline) realLayer(v int) int {
	return v % p.w.Cfg.Layers
}

// primeLayer stages virtual layer v before the first pass, the one
// layer no pass pages in: its shared region lands synchronously in the
// double buffer through staging, via the same runPin/runPage steps the
// lanes schedule, and so does its predicted expert set, for the rows laid
// out for that pass, as one share. Every later layer, the next pass's
// layer 0 included, is paged in by the graph.
func (p *Pipeline) primeLayer(v int) error {
	for pg := 0; pg < p.table.NumPages; pg++ {
		if err := p.runPin(v, pg); err != nil {
			return err
		}
		if err := p.runPage(v, pg); err != nil {
			return err
		}
	}
	p.fetchExperts(p.realLayer(v), p.rowOff[len(p.mbs)], 0, 1)
	return nil
}

// pagedExperts adapts the expert pager to the expertSource interface
// expertFFN consumes, for one real layer at a time.
type pagedExperts struct {
	p     *Pipeline
	layer int
}

func (s *pagedExperts) Acquire(e int) (gate, up, down tensor.Panels, err error) {
	block, err := s.p.pager.Acquire(paging.ExpertKey{Layer: s.layer, Expert: e})
	if err != nil {
		// The caller (expertFFN) skips the expert without touching
		// the matrices or calling Release.
		return tensor.Panels{}, tensor.Panels{}, tensor.Panels{}, err
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
// runs on the Pin lane once per expert share and must not allocate.
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

// fetchExperts fetches share `share` of `shares` of real layer `layer`'s
// predicted expert set into the pager, on the calling goroutine: the
// experts(l, j) task on the Pin lane, or primeLayer with one share. The
// set is at most half the residency pool, so the next layer's blocks
// never crowd out the experts the current layer is still using — nothing
// at all for a pool of one block, which the current layer's first demand
// fetch would take back before the next layer could read it — and at
// most rows x TopK blocks, all that a layer of `rows` token rows can
// route to. Without the second limit a wave of one or two sequences
// would copy every expert of every layer, blocks that are mostly never
// read. A block the prediction left out, or that the pager passes over,
// is covered by the demand-fetch fallback. predBuf and keyBuf belong to
// the Pin lane; ffn(l) waits for the layer's last share, so every share
// reads ExpertLoad[layer] before the FFN adds to it.
func (p *Pipeline) fetchExperts(layer, rows, share, shares int) {
	n := min(p.pager.Slots()/2, p.w.Cfg.Experts, rows*p.w.Cfg.TopK)
	keys := p.keyBuf[:0]
	for _, e := range p.predictExperts(layer, n)[share*n/shares : (share+1)*n/shares] {
		keys = append(keys, paging.ExpertKey{Layer: layer, Expert: e})
	}
	p.keyBuf = keys
	p.pager.Prefetch(keys...)
}

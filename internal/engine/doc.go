// Package engine is the functional MoE inference engine: a real (tiny-
// scale) MoE transformer that executes prefill and decode as passes of
// the CGOPipe schedule over explicit memory arenas, with one worker
// goroutine per hardware lane.
// Its output is verified token-for-token against a sequential reference
// implementation, demonstrating that the paper's schedule, paging and
// memory management preserve model semantics.
//
// # Where things are defined
//
// Each concept has one definition; everything else passes it through.
//
//   - Config (pipeline.go): every engine option. ServeConfig embeds it
//     and the server hands the embedded value to NewPipeline unchanged,
//     once per server.
//   - Host / NewHost (host.go): weights plus GPU / pinned / KV arena
//     sizing, for every caller that builds an engine.
//   - KV capacity: Config.MaxContext float32 tokens a sequence slot,
//     made the pool and its arena by kvcache.PoolTokens / ArenaFloats and
//     each micro-batch's Alg. 2 budget (NewServer), in whole blocks.
//   - QueueBound, AdmissionOrder, PlanWave (admission.go): the queue
//     bound and the wave-boundary decision — one order read from the
//     requests, Alg. 2 placement, deferral — shared with the traffic
//     simulator.
//   - SLO.Verdict, SLOTally (admission.go): whether a finished request
//     met its SLO, and the four counters. ServerStats, traffic's Run
//     report and its admission simulator's report embed the tally.
//   - ServerStats (stats.go): the counters. The server accumulates into
//     one directly; ServeResult and the facade's results embed it.
//   - The step's task graph (internal/schedule): roles, lanes,
//     look-ahead, issue order and dependencies, weight-buffer reuse
//     hazards and the expert weight stream included, are what
//     schedule.Build emits for CGOPipe — the
//     graph the simulator runs. It is built for a run's micro-batch
//     count, always with Plan.LayerFFN, and bound to Pipeline.runTask
//     (laneSet, pipeline.go) — again only when a run's count differs
//     from the one bound (Pipeline.begin). It is the only code that
//     runs the model forward: Pipeline.Run drives every pass through one
//     entry, Pipeline.pass, whose one planner (plan) gives a prompt pass
//     up to PrefillChunk prompt tokens as rows and a decode step one row
//     per live sequence, from each sequence's own progress; one epilogue
//     follows every pass. prefill.go keeps prefix-reuse planning and the
//     prompt-phase totals. A pass lays its rows out and runs the graph,
//     and a decode step allocates nothing for it.
//   - Post-attention (forward.go): postAttention is postRoute (O
//     projection, residual, router; per group of rows, at a row offset)
//     then expertFFN (every routed expert once over all rows). The
//     reference calls the composition; a pass calls postRoute from
//     post(l, j) for each micro-batch and expertFFN once from ffn(l), so
//     a layer passes over an expert's weights once however many
//     micro-batches route to it. Rows are independent and a token's
//     experts accumulate in ascending id either way: the tokens are the
//     reference's.
//   - The KV codec (internal/kvcache): F32 or Int8 is Config.KVDtype,
//     handed to kvcache.New, and nothing in this package asks again.
//     The CPU attention task and the reference read the cache through
//     kvcache.View — Pipeline.views, one per sequence — which picks the
//     block list, the scratch and so the kernel.
//
// The Server itself is four files: handle.go (the request handle),
// admit.go (submit into the locked queue, overload gate, admission
// loop), wave.go (plan → run
// on the server's pipeline under the wave's deadline → audit → finalize,
// one call on the admission loop's goroutine) and stats.go. It is the
// only server type: the root package's Server is an alias of it. Submit,
// SubmitSLO and SubmitBatch take a context whose cancellation cancels
// the request (a nil context never cancels). Serve (serve.go) is the
// only closed-queue drain, and ServeConfigForPolicy the only mapping
// from an optimizer policy to a serve shape.
//
// # The expert weight stream
//
// Expert FFN blocks reach the GPU through paging.ExpertPager, and the
// engine, not the pager, knows what runs next: the copies are tasks of
// the step graph. A layer's first post-attention task, post(l, 0),
// announces the layer to the pager (BeginLayer) once the previous
// layer's expert FFN has retired. Behind it, one expert share per
// micro-batch, experts(l+1, j) on the Pin lane, fetches the j-th part of
// the next layer's predicted experts (fetchExperts): load descending, as
// many as half the pool holds and no more than the next layer's rows x
// TopK — what it can route to (for the last layer, the next pass's rows:
// after the last prompt pass, the decode step's live rows). The copy runs
// inside the task, on the lane's goroutine; ffn(l+1) waits for the last
// share, so every predicted block has landed when the layer's FFN asks
// for it, and when a copy runs is a fact of the graph the simulator
// schedules. Only layer 0 before the first pass is fetched outside the
// graph (primeLayer). The pager evicts in schedule order — the layer just
// finished first, the layer about to run last, LRU plus frequency only
// inside a layer — and lets no prefetch displace a block needed sooner
// than the one it brings. With the default pool of two layers every
// block is fetched once per pass, off the GPU lane; whatever the pool, a
// block that is not there when a kernel asks is fetched on the spot, so
// residency moves time and never tokens.
//
// # The handle state machine
//
// A Handle is in one of three states, and every transition is taken by
// the serving goroutine (Submit only creates the handle and appends it
// to the server's queue):
//
//	queued ──PlanWave places it──▶ in wave ──finalize──▶ finished
//	  │  ▲                                                  ▲
//	  │  └── PlanWave passes it over: Deferrals++ ──────────│── (stays queued)
//	  └── reaped or failed before any wave ─────────────────┘
//
// queued: counted in Submitted at Submit, under the same hold of the
// server's lock that appends it to the queue, and against the queue
// bound from then until the handle dispatches into a wave or finishes.
// The admission loop takes the whole queue at every wave boundary; a
// handle it defers waits in the loop's own pending set, still counted
// against the bound, for a boundary with room — one comes, because
// Submit refuses any request an empty micro-batch cannot hold. It
// leaves by dispatch, or straight to finished with ErrCanceled
// (canceled while queued), ErrDeadlineExceeded (TTFT budget expired in
// the queue), a batcher error, or the error of the wave that deferred
// it.
//
// in wave: owns one pipeline sequence; push streams its tokens and the
// wave's stop function retires it (GenLen reached, cancel). It leaves
// only to finished: nil on success, ErrCanceled, a request-scoped error
// (KV exhaustion, failed expert fetch) or the wave's error (generation
// error, ErrWaveStalled). A handle never returns from a wave to the
// queue.
//
// finished: terminal, entered exactly once through Handle.settle (a
// second call is a no-op) by Server.finalize, which folds the outcome
// into the stats and only then wakes the handle's waiters (Handle.wake):
// whoever returns from Wait reads Stats that count the request. A
// wave's busy time and wave count are folded before its first handle
// finishes. A push after settle is dropped.
package engine

// Package engine is the functional MoE inference engine: a real (tiny-
// scale) MoE transformer that executes prefill and CGOPipe decode over
// explicit memory arenas, with one worker goroutine per hardware lane.
// Its output is verified token-for-token against a sequential reference
// implementation, demonstrating that the paper's schedule, paging and
// memory management preserve model semantics.
//
// # Where things are defined
//
// Each concept has one definition; everything else passes it through.
//
//   - Config (pipeline.go): every engine option. ServeConfig embeds it
//     and the server hands the embedded value to NewPipeline unchanged.
//   - Host / NewHost (host.go): weights plus GPU / pinned / KV arena
//     sizing, for every caller that builds an engine.
//   - AdmissionPolicy, PlanWave (admission.go): queue bounds and the
//     wave-boundary decision — ordering, Alg. 2 placement, deferral,
//     no-progress — shared with the traffic simulator.
//   - ServerStats (stats.go): the counters. The server accumulates into
//     one directly; ServeResult and the facade's results embed it.
//   - The decode step's task graph (internal/schedule): roles, lanes,
//     look-ahead, issue order and dependencies, weight-buffer reuse
//     hazards included, are what schedule.Build emits for CGOPipe — the
//     graph the simulator runs. NewPipeline builds it once for the
//     pipeline's shape, always with Plan.LayerFFN, and binds it to
//     Pipeline.runTask; decodeStep sets the step's inputs and runs it
//     (laneSet, pipeline.go), allocating nothing for it.
//   - Post-attention (forward.go): postAttention is postRoute (O
//     projection, residual, router; per group of rows, at a row offset)
//     then expertFFN (every routed expert once over all rows). The
//     reference and prefill call the composition; a decode step calls
//     postRoute from post(l, j) for each micro-batch and expertFFN once
//     from ffn(l), so a layer passes over an expert's weights once
//     however many micro-batches route to it. Rows are independent and a
//     token's experts accumulate in ascending id either way: the tokens
//     are the reference's.
//   - The KV codec (internal/kvcache): F32 or Int8 is Config.KVDtype,
//     handed to kvcache.New, and nothing in this package asks again.
//     Prefill, the decode step's CPU attention and the reference read
//     the cache through kvcache.View — Pipeline.views, one per
//     sequence — which picks the block list, the scratch and so the
//     kernel.
//
// The Server itself is four files: handle.go (the request handle),
// admit.go (submit, overload gate, admission loop), wave.go (plan →
// build → run under the watchdog → audit → finalize) and stats.go.
//
// # The expert weight stream
//
// Expert FFN blocks reach the GPU through paging.ExpertPager, and the
// engine, not the pager, knows what runs next. Pipeline.beginLayer is
// the one place they meet: when a layer starts (decode: the top of its
// first post-attention task, once the previous layer's expert FFN has
// retired and a micro-batch's worth of tasks before its own; prefill:
// the top of the layer) it announces the layer and requests the next
// layer's predicted experts, load descending, as many as half the pool
// holds and no more than the next layer's rows x TopK — what it can
// route to; a one-sequence wave that asked for all of them would keep
// the worker copying unread blocks beside the lanes from start to
// finish. The pager then evicts in schedule order — the layer just
// finished first, the layer about to run last, LRU plus frequency only
// inside a layer — lets no prefetch displace a block needed sooner than
// the one it brings, and keeps a single pending request, so its worker
// is never more than one copy behind the schedule and Close waits for
// that copy alone. With the default pool of two layers every block is
// fetched once per decode step, off the GPU lane; whatever the pool, a
// block that is not there when a kernel asks is fetched on the spot, so
// residency moves time and never tokens.
//
// # The handle state machine
//
// A Handle is in one of three states, and every transition is taken by
// the serving goroutine (Submit only creates the handle):
//
//	queued ──PlanWave places it──▶ in wave ──finalize──▶ finished
//	  │  ▲                                                  ▲
//	  │  └── PlanWave passes it over: Deferrals++ ──────────│── (stays queued)
//	  └── reaped or failed before any wave ─────────────────┘
//
// queued: counted against the queue bounds from Submit until the handle
// dispatches into a wave or finishes. It leaves by dispatch, or straight
// to finished with ErrCanceled (canceled while queued),
// ErrDeadlineExceeded (TTFT budget expired in the queue), ErrNoProgress
// (deferred with the same set twice running), a no-fit or batcher
// error, or the watchdog's error on a broken server.
//
// in wave: owns one pipeline sequence; push streams its tokens and the
// wave's stop function retires it (GenLen reached, cancel, TPOT guard).
// It leaves only to finished: nil on success, ErrCanceled,
// ErrDeadlineExceeded (TPOT guard), a request-scoped error (KV
// exhaustion, failed expert fetch) or the wave's error (build failure,
// generation error, ErrWaveStalled). A handle never returns from a wave
// to the queue.
//
// finished: terminal, entered exactly once through Handle.settle (a
// second call is a no-op) by Server.finalize, which folds the outcome
// into the stats and only then wakes the handle's waiters (Handle.wake):
// whoever returns from Wait reads Stats that count the request. A
// wave's busy time and wave count are folded before its first handle
// finishes. A push after settle is dropped.
package engine

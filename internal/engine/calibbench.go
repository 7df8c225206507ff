package engine

import (
	"context"
	"errors"
	"time"

	"moelightning/internal/model"
	"moelightning/internal/workload"
)

// In-process measurement harness for internal/calib: the same decode
// and prefill paths the benchmarks time (benchDecodeStep,
// BenchmarkPrefillPacked), exported as functions so the calibration
// layer can harvest real step times without going through `go test
// -bench`. Every run is seeded and self-contained — weights and arenas
// are built per call and freed on return.

// BenchConfig parameterizes one measurement: a seeded model, Seqs
// prompts of PromptLen tokens each, and the engine Config to run them
// under. The harness owns the run's shape: it derives MaxContext from
// PromptLen and Steps, so a set MaxContext is rejected, and splits Seqs
// evenly; a non-positive MicroBatch runs all Seqs as one micro-batch.
type BenchConfig struct {
	// Model is the architecture to run (tiny scale only — the harness
	// executes real float32 math).
	Model model.Config
	// Seed makes the synthetic weights and prompts deterministic.
	Seed            int64
	Seqs, PromptLen int
	// Steps is how many decode steps MeasureDecodeSteps times (after one
	// untimed warm-up step that fills pipelines and the expert pool).
	Steps int
	Config
}

// DecodeBenchResult is one timed decode run.
type DecodeBenchResult struct {
	// SecondsPerStep is wall time per decode step; each step generates
	// Seqs tokens.
	SecondsPerStep float64
	// Context is the cached context length at the midpoint of the
	// measured steps.
	Context int
	// ExpertHits / ExpertMisses are the pager's acquisitions over the
	// measured steps only (warm-up excluded).
	ExpertHits, ExpertMisses int64
}

// MeasureDecodeSteps runs the prompt phase over cfg.Seqs prompts (a
// one-token run: its last pass pages layer 0 in), runs one warm-up step,
// then times cfg.Steps steady-state decode steps — passes, planned and
// run, the LM head excluded — through the full pipelined lane schedule
// (GPU, CPU, HtoD, DtoH).
func MeasureDecodeSteps(cfg BenchConfig) (DecodeBenchResult, error) {
	var res DecodeBenchResult
	if cfg.Steps <= 0 {
		cfg.Steps = 8
	}
	if cfg.PromptLen <= 0 {
		cfg.PromptLen = 4
	}
	pl, prompts, err := buildBenchPipeline(cfg, cfg.PromptLen+cfg.Steps+8)
	if err != nil {
		return res, err
	}
	defer pl.Close()

	ctx := context.Background()
	if _, err := pl.Run(ctx, prompts, nil, 1, nil, nil); err != nil {
		return res, err
	}
	if err := pl.pass(ctx); err != nil { // warm-up
		return res, err
	}
	paging := &pl.Counters.ExpertPaging
	hits0, misses0 := paging.Hits.Load(), paging.Misses.Load()

	start := time.Now()
	for range cfg.Steps {
		if err := pl.pass(ctx); err != nil {
			return res, err
		}
	}
	elapsed := time.Since(start)

	res.SecondsPerStep = elapsed.Seconds() / float64(cfg.Steps)
	res.Context = cfg.PromptLen + 1 + cfg.Steps/2
	res.ExpertHits = paging.Hits.Load() - hits0
	res.ExpertMisses = paging.Misses.Load() - misses0
	return res, nil
}

// PrefillBenchResult is one timed packed-prefill pass.
type PrefillBenchResult struct {
	// Tokens prompt tokens prefilled in Seconds of wall clock.
	Tokens  int
	Seconds float64
}

// MeasurePrefill times the prompt phase at the given chunk size: the
// wave's prompt tokens run through the step graph in passes of at most
// PrefillChunk rows, each layer of a pass one QKV GEMM per micro-batch
// and one expert-grouped FFN over every row.
func MeasurePrefill(cfg BenchConfig) (PrefillBenchResult, error) {
	var res PrefillBenchResult
	if cfg.PromptLen <= 0 {
		cfg.PromptLen = 16
	}
	pl, prompts, err := buildBenchPipeline(cfg, cfg.PromptLen+8)
	if err != nil {
		return res, err
	}
	defer pl.Close()

	if _, err := pl.Run(context.Background(), prompts, nil, 1, nil, nil); err != nil {
		return res, err
	}
	res.Seconds = pl.PrefillDuration.Seconds()
	res.Tokens = pl.PrefillTokens
	return res, nil
}

// ServeBenchResult is one timed closed-queue serve run: the serve
// outcome (its GeneratedTokens is the throughput numerator) plus the
// wall-clock it took — prefill + decode + scheduling, the end-to-end
// figure the calibrated performance model is judged against.
type ServeBenchResult struct {
	ServeResult
	Seconds float64
}

// MeasureServe builds a host sized for cfg's waves, drains the request
// queue through Serve and reports wall-clock generation throughput.
func MeasureServe(m model.Config, seed int64, queue []workload.Request, cfg ServeConfig) (ServeBenchResult, error) {
	var res ServeBenchResult
	host, err := NewHost(m, seed, cfg.MicroBatch*cfg.NumMicroBatches, cfg.MaxContext, cfg.ExpertResidencyBytes)
	if err != nil {
		return res, err
	}
	start := time.Now()
	res.ServeResult, err = Serve(host, queue, cfg)
	res.Seconds = time.Since(start).Seconds()
	return res, err
}

// buildBenchPipeline builds a host for the model (sized like a
// server's) and a pipeline plus synthetic prompts over it.
func buildBenchPipeline(cfg BenchConfig, maxContext int) (*Pipeline, [][]int, error) {
	if cfg.MaxContext != 0 {
		return nil, nil, errors.New("engine: BenchConfig derives MaxContext; leave it unset")
	}
	cfg.MaxContext = maxContext
	host, err := NewHost(cfg.Model, cfg.Seed, cfg.Seqs, maxContext, cfg.ExpertResidencyBytes)
	if err != nil {
		return nil, nil, err
	}
	reqs := make([]workload.Request, cfg.Seqs)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, PromptLen: cfg.PromptLen}
	}
	pl, err := NewPipeline(host.W, host.GPU, host.Pinned, host.Cache, cfg.Seqs, cfg.Config)
	if err != nil {
		return nil, nil, err
	}
	return pl, PromptsFromRequests(reqs, cfg.Model.VocabSize), nil
}

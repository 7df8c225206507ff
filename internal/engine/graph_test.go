package engine

import (
	"context"
	"reflect"
	"testing"

	"moelightning/internal/model"
	"moelightning/internal/schedule"
	"moelightning/internal/sim"
)

// TestBoundGraphStepAllocatesNothing: once bound, running a step of the
// graph — submit, tokens along every edge, barrier — allocates nothing,
// step after step, and runs every task once.
func TestBoundGraphStepAllocatesNothing(t *testing.T) {
	graph, err := schedule.Build(schedule.CGOPipe, schedule.Plan{Layers: 6, MicroBatches: 4, Lookahead: 2, AttnPages: 3})
	if err != nil {
		t.Fatal(err)
	}
	ran := make([]int, 5) // per lane; each lane's worker is the only writer of its element
	ls := newLaneSet(graph, func(task *sim.Task) error { ran[task.Lane]++; return nil }, func(error) {})
	defer ls.close()
	if allocs := testing.AllocsPerRun(20, ls.runStep); allocs != 0 {
		t.Errorf("a step over the bound graph allocates %.0f times, want 0", allocs)
	}
	total := 0
	for _, n := range ran {
		total += n
	}
	if want := 21 * len(graph); total != want { // AllocsPerRun warms up with one extra run
		t.Errorf("%d task runs over 21 steps, want %d", total, want)
	}
}

// TestDecodeStepAllocations: a warm decode step — one pass after the
// prompt phase, planned and run, the LM head excluded — at the standing
// benchmark's wave shape (bench-moe-8x, 16 sequences as 4x4). What is
// left is the pager's per-block bookkeeping, the attention fan-out and
// ParallelFor; building the graph every step cost ~890 more.
func TestDecodeStepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("a count, the same under -race, at ten times the run time")
	}
	const steps = 10
	pl, prompts, err := buildBenchPipeline(BenchConfig{
		Model: model.Config{
			Name: "bench-moe-8x", Layers: 6, Hidden: 128, Intermediate: 448,
			QHeads: 8, KVHeads: 2, HeadDim: 16, Experts: 8, TopK: 2, VocabSize: 512,
			WeightDType: model.F32, KVDType: model.F32,
		},
		Seed: 1, Seqs: 16, PromptLen: 12, Config: Config{MicroBatch: 4},
	}, 12+steps+8)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if _, err := pl.Run(context.Background(), prompts, nil, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(steps, func() {
		if err := pl.pass(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("a warm decode step allocates %.0f objects, want <= 200", allocs)
	}
}

// TestRetirementLeavesCallersPartition: the pipeline retires sequences
// out of its own copy of an explicit partition, whole micro-batch
// included.
func TestRetirementLeavesCallersPartition(t *testing.T) {
	cfg := model.Tiny()
	cpu, gpu, pinned, cacheArena := newTestArenas()
	w, err := NewRandomWeights(cpu, cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	partition := [][]int{{3, 0}, {1}, {4, 2}}
	pl, err := NewPipeline(w, gpu, pinned, cacheArena, 5, Config{MaxContext: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	stop := func(seq, emitted int) bool { return (seq == 1 || seq == 4) && emitted >= 2 }
	got, err := pl.Run(context.Background(), testPrompts(5, 3, 8, cfg.VocabSize), partition, 5, nil, stop)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[1]) != 2 || len(got[4]) != 2 || len(got[0]) != 5 {
		t.Fatalf("retirement did not happen as set up: %v", got)
	}
	if want := [][]int{{3, 0}, {1}, {4, 2}}; !reflect.DeepEqual(partition, want) {
		t.Errorf("caller's partition is now %v, want %v", partition, want)
	}
	if want := [][]int{{3, 0}, {}, {2}}; !reflect.DeepEqual(pl.mbs, want) {
		t.Errorf("pipeline's micro-batches are %v, want %v", pl.mbs, want)
	}
}

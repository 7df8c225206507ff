package schedule

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"moelightning/internal/hardware"
	"moelightning/internal/model"
	"moelightning/internal/perfmodel"
	"moelightning/internal/sim"
	"moelightning/internal/workload"
)

// testDurations are round numbers so makespans are easy to reason about.
func testDurations() Durations {
	return Durations{
		PreAttn: 1, PostAttn: 3, GPUAttn: 2, CPUAttn: 4,
		QKVOff: 0.5, HiddenLoad: 0.5, KVLoad: 5, KVStore: 0.2,
		WeightPage: 2, WeightWhole: 8, PinPage: 1, PinWhole: 4,
	}
}

func TestBuildAllStrategiesRunAndValidate(t *testing.T) {
	for _, s := range Strategies() {
		for _, plan := range []Plan{
			{Layers: 1, MicroBatches: 1, D: testDurations()},
			{Layers: 2, MicroBatches: 1, D: testDurations()},
			{Layers: 1, MicroBatches: 4, D: testDurations()},
			{Layers: 3, MicroBatches: 4, D: testDurations()},
			{Layers: 4, MicroBatches: 7, D: testDurations()},
		} {
			tasks, err := Build(s, plan)
			if err != nil {
				t.Fatalf("%s %dx%d: build: %v", s, plan.Layers, plan.MicroBatches, err)
			}
			res, err := sim.Run(tasks)
			if err != nil {
				t.Fatalf("%s %dx%d: run: %v", s, plan.Layers, plan.MicroBatches, err)
			}
			if err := res.Validate(tasks); err != nil {
				t.Fatalf("%s %dx%d: invariants: %v", s, plan.Layers, plan.MicroBatches, err)
			}
			if res.Makespan <= 0 {
				t.Fatalf("%s %dx%d: zero makespan", s, plan.Layers, plan.MicroBatches)
			}
		}
	}
}

func TestBuildRejectsBadPlans(t *testing.T) {
	if _, err := Build(CGOPipe, Plan{Layers: 0, MicroBatches: 1}); err == nil {
		t.Error("zero layers")
	}
	if _, err := Build(Strategy("nope"), Plan{Layers: 1, MicroBatches: 1, D: testDurations()}); err == nil {
		t.Error("unknown strategy")
	}
}

// TestCGOPipeBeatsUnpagedSchedules is Fig. 6's central claim: with CPU
// attention and realistic proportions, CGOPipe's paged weights beat the
// monolithic-transfer variants, and the lookahead-2 pipeline beats the
// serialized one.
func TestCGOPipeBeatsUnpagedSchedules(t *testing.T) {
	plan := Plan{Layers: 8, MicroBatches: 4, D: testDurations()}
	span := make(map[Strategy]float64)
	for _, s := range Strategies() {
		tasks, err := Build(s, plan)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tasks)
		if err != nil {
			t.Fatal(err)
		}
		span[s] = res.Makespan
	}
	if span[CGOPipe] >= span[Overlap] {
		t.Errorf("CGOPipe (%v) not faster than unpaged pipeline S2 (%v)", span[CGOPipe], span[Overlap])
	}
	if span[Overlap] > span[SerialCPU] {
		t.Errorf("S2 (%v) slower than S3 (%v)", span[Overlap], span[SerialCPU])
	}
	if span[CGOPipe] >= span[GPUAttn] {
		t.Errorf("CGOPipe (%v) not faster than FlexGen S4 (%v)", span[CGOPipe], span[GPUAttn])
	}
}

// TestS3VsS4Crossover reproduces §4.1's observation: S3 can be worse
// than S4 when the KV transfer is cheaper than pre+post+CPU-attention,
// and better when KV transfers dominate.
func TestS3VsS4Crossover(t *testing.T) {
	cheapKV := testDurations()
	cheapKV.KVLoad = 1 // KV transfer < pre+post+cpuattn = 8
	expensiveKV := testDurations()
	expensiveKV.KVLoad = 30

	run := func(s Strategy, d Durations) float64 {
		tasks, err := Build(s, Plan{Layers: 6, MicroBatches: 4, D: d})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tasks)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if run(SerialCPU, cheapKV) <= run(GPUAttn, cheapKV) {
		t.Error("with cheap KV transfers S4 should beat S3")
	}
	if run(SerialCPU, expensiveKV) >= run(GPUAttn, expensiveKV) {
		t.Error("with expensive KV transfers S3 should beat S4")
	}
}

// TestCGOPipeHtoDUtilization: with weight transfer as the bottleneck,
// CGOPipe should keep the HtoD lane nearly saturated (the paper's
// "reduces pipeline bubbles" claim).
func TestCGOPipeHtoDUtilization(t *testing.T) {
	d := testDurations()
	d.WeightPage = 4 // weights dominate
	tasks, err := Build(CGOPipe, Plan{Layers: 8, MicroBatches: 4, D: d})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Utilization(sim.HtoD); u < 0.9 {
		t.Errorf("CGOPipe HtoD utilization = %.2f, want >= 0.9", u)
	}
}

// TestSerialOverlapsWeightsWithCompute: the DeepSpeed-style schedule
// overlaps next-layer weights with compute via double buffering, so its
// makespan is ~max(weights, compute) per layer, not the sum.
func TestSerialOverlapsWeightsWithCompute(t *testing.T) {
	d := Durations{PreAttn: 1, GPUAttn: 1, PostAttn: 6, WeightWhole: 8}
	tasks, err := Build(Serial, Plan{Layers: 10, MicroBatches: 1, D: d})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	perLayer := res.Makespan / 10
	if perLayer > 8.5 || perLayer < 8.0 {
		t.Errorf("serial per-layer = %v, want ~8 (overlapped)", perLayer)
	}
}

func TestPlanForProducesConsistentDurations(t *testing.T) {
	// Fig. 9's hardware: the L4 instance (S2) with the 24-core Xeon.
	in := perfmodel.Input{
		Model:    model.Mixtral8x7B(),
		Spec:     hardware.S2(),
		Workload: workload.MTBench(128),
		Padded:   true,
	}
	e, err := perfmodel.New(in)
	if err != nil {
		t.Fatal(err)
	}
	p := perfmodel.Policy{N: 512, Mu: 64, GPUFFN: true}
	plan := PlanFor(e, p, 512)
	if plan.Layers != 32 || plan.MicroBatches != 8 {
		t.Fatalf("plan geometry: %+v", plan)
	}
	d := plan.D
	if d.WeightPage*float64(plan.MicroBatches) != d.WeightWhole {
		t.Errorf("pages (%v x %d) must sum to the whole transfer (%v)",
			d.WeightPage, plan.MicroBatches, d.WeightWhole)
	}
	if d.CPUAttn <= 0 || d.PostAttn <= 0 || d.PreAttn <= 0 {
		t.Error("non-positive durations")
	}
	// Fig. 9 relationship at this scale: KV transfer ~3-4x CPU attention
	// (CPU memory bandwidth vs link bandwidth).
	c := e.TaskCosts(p, 512)
	ratio := c.KVLoad / c.CPUAttn
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("KV transfer / CPU attention = %.2f, want ~3-4x", ratio)
	}
}

func TestStrategyFor(t *testing.T) {
	if StrategyFor(perfmodel.Policy{GPUAttn: true}) != GPUAttn {
		t.Error("GPU attention policy must use S4")
	}
	if StrategyFor(perfmodel.Policy{GPUAttn: false}) != CGOPipe {
		t.Error("CPU attention policy must use CGOPipe")
	}
}

// TestSteadyStateWork: every strategy must schedule exactly one weight
// transfer per layer per step (layers 2..L+1), no more, no less.
func TestSteadyStateWork(t *testing.T) {
	plan := Plan{Layers: 5, MicroBatches: 3, D: testDurations()}
	for _, s := range Strategies() {
		tasks, err := Build(s, plan)
		if err != nil {
			t.Fatal(err)
		}
		var weightTime float64
		for _, task := range tasks {
			if task.Kind == "weights" {
				weightTime += task.Duration
			}
		}
		var want float64
		switch s {
		case CGOPipe:
			want = float64(plan.Layers) * float64(plan.MicroBatches) * plan.D.WeightPage
		default:
			want = float64(plan.Layers) * plan.D.WeightWhole
		}
		if weightTime != want {
			t.Errorf("%s: weight transfer time %v, want %v", s, weightTime, want)
		}
	}
}

// TestDiskTasksGateWeights: with a disk share, every weight transfer
// must wait for its disk read, and the Disk lane must appear in the
// simulation.
func TestDiskTasksGateWeights(t *testing.T) {
	d := testDurations()
	// Slow enough that the disk lane, not the link or GPU, binds.
	d.DiskWhole = 60
	d.DiskPage = 15
	for _, s := range Strategies() {
		tasks, err := Build(s, Plan{Layers: 3, MicroBatches: 4, D: d})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tasks)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if err := res.Validate(tasks); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.BusyTime(sim.Disk) <= 0 {
			t.Errorf("%s: no disk lane activity", s)
		}
		// The disk is slower than everything else here, so it must
		// lengthen the step vs the diskless plan.
		diskless, err := Build(s, Plan{Layers: 3, MicroBatches: 4, D: testDurations()})
		if err != nil {
			t.Fatal(err)
		}
		base, err := sim.Run(diskless)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan <= base.Makespan {
			t.Errorf("%s: disk-gated step (%v) not slower than diskless (%v)", s, res.Makespan, base.Makespan)
		}
	}
}

// BenchmarkBuild is the cost the engine pays once per pipeline: the
// CGOPipe graph at the standing benchmark's wave shape.
func BenchmarkBuild(b *testing.B) {
	plan := Plan{Layers: 6, MicroBatches: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(CGOPipe, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// eachEnginePlan calls f with the CGOPipe graph of every plan the
// functional engine can ask for — all-zero durations, its own look-ahead
// and attention page count, the layer-wide expert FFN it runs — and of
// the same plans with the paper's per-micro-batch FFN.
func eachEnginePlan(t *testing.T, f func(name string, p Plan, tasks []sim.Task)) {
	t.Helper()
	for _, layerFFN := range []bool{false, true} {
		for layers := 1; layers <= 6; layers++ {
			for nb := 1; nb <= 5; nb++ {
				for ahead := 1; ahead <= 3; ahead++ {
					for attn := 1; attn <= nb; attn++ {
						p := Plan{Layers: layers, MicroBatches: nb, Lookahead: ahead, AttnPages: attn, LayerFFN: layerFFN}
						tasks, err := Build(CGOPipe, p)
						if err != nil {
							t.Fatal(err)
						}
						f(fmt.Sprintf("%dx%d ahead %d attn %d layer-ffn %v", layers, nb, ahead, attn, layerFFN), p, tasks)
					}
				}
			}
		}
	}
}

// TestEngineGraphsRun: no look-ahead, page count or shape deadlocks the
// FIFO lanes, and a graph without durations is exactly the seven tasks
// of every (layer, micro-batch) slot, plus, when the plan asks for the
// layer-wide FFN, one ffn per layer and one expert share per slot on the
// Pin lane — no disk read.
func TestEngineGraphsRun(t *testing.T) {
	eachEnginePlan(t, func(name string, p Plan, tasks []sim.Task) {
		res, err := sim.Run(tasks)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Validate(tasks); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ffns, wantFFNs, shares, wantShares := 0, 0, 0, 0
		if p.LayerFFN {
			wantFFNs, wantShares = p.Layers, p.Layers*p.MicroBatches
		}
		if want := 7*p.Layers*p.MicroBatches + wantFFNs + wantShares; len(tasks) != want {
			t.Errorf("%s: %d tasks, want %d", name, len(tasks), want)
		}
		for _, task := range tasks {
			switch task.Role {
			case RoleDisk:
				t.Errorf("%s: %v emitted without a disk tier", name, task)
			case RoleFFN:
				ffns++
				if task.Lane != sim.GPU || task.MB != 0 {
					t.Errorf("%s: %v on lane %v with MB %d, want the GPU lane and MB 0", name, task, task.Lane, task.MB)
				}
			case RoleExperts:
				shares++
				if task.Lane != sim.Pin {
					t.Errorf("%s: %v on lane %v, want the Pin lane", name, task, task.Lane)
				}
			}
		}
		if ffns != wantFFNs || shares != wantShares {
			t.Errorf("%s: %d ffn tasks and %d expert shares, want %d and %d", name, ffns, shares, wantFFNs, wantShares)
		}
	})
}

// TestEngineGraphsOrderBufferReuse is structural, not a timing: in the
// happens-before closure of dependencies plus same-lane issue order —
// all an executor with FIFO lanes guarantees — nothing is written into a
// weight buffer slot while a task may still read it. The GPU double
// buffer and the pinned staging each hold two layers, by layer parity.
// Under LayerFFN, ffn(l) gathers rows every post(l, ·) wrote and writes
// the hidden states every pre(l+1, ·) reads; and layer l+1's expert
// shares start once post(l, 1) has announced layer l and all finish
// before ffn(l+1): its predicted blocks have landed, and the router
// statistics the shares read are not yet written by it.
func TestEngineGraphsOrderBufferReuse(t *testing.T) {
	eachEnginePlan(t, func(name string, p Plan, tasks []sim.Task) {
		index := make(map[int]int, len(tasks))
		for i, task := range tasks {
			index[task.ID] = i
		}
		// after[i][k]: task k has finished before task i starts.
		after := make([][]bool, len(tasks))
		var visit func(i int) []bool
		visit = func(i int) []bool {
			if after[i] != nil {
				return after[i]
			}
			after[i] = make([]bool, len(tasks))
			preds := make([]int, 0, 4)
			for _, d := range tasks[i].Deps {
				preds = append(preds, index[d])
			}
			for k := i - 1; k >= 0; k-- {
				if tasks[k].Lane == tasks[i].Lane {
					preds = append(preds, k)
					break
				}
			}
			for _, k := range preds {
				after[i][k] = true
				for m, ok := range visit(k) {
					if ok {
						after[i][m] = true
					}
				}
			}
			return after[i]
		}
		ordered := func(first, then int) {
			t.Helper()
			if a, b := index[first], index[then]; !visit(b)[a] {
				t.Fatalf("%s: %v may start before %v has finished", name, tasks[b], tasks[a])
			}
		}
		nb := p.MicroBatches
		attn := min(p.AttnPages, nb)
		for l := 2; l <= p.Layers+1; l++ {
			for pg := 1; pg <= nb; pg++ {
				page := p.id(RolePage, l, pg)
				// Layer l's pages land in the slot layer l-2 computed from.
				for j := 1; j <= nb && l > 2; j++ {
					ordered(p.id(RolePre, l-2, j), page)
					ordered(p.id(RolePost, l-2, j), page)
				}
				// Its pin overwrites the staging slot page (l-2, pg) ships from.
				if l > 3 {
					ordered(p.id(RolePage, l-2, pg), p.id(RolePin, l, pg))
				}
				// Its consumers: the QKV projection reads the leading
				// pages, post-attention the whole layer.
				for j := 1; j <= nb && l <= p.Layers; j++ {
					if pg <= attn {
						ordered(page, p.id(RolePre, l, j))
					}
					ordered(page, p.id(RolePost, l, j))
				}
			}
		}
		for l := 1; l <= p.Layers && p.LayerFFN; l++ {
			for j := 1; j <= nb; j++ {
				ordered(p.id(RolePost, l, j), p.id(RoleFFN, l, 0))
				ordered(p.id(RolePost, l, 1), p.id(RoleExperts, l+1, j))
				if l < p.Layers {
					ordered(p.id(RoleFFN, l, 0), p.id(RolePre, l+1, j))
					ordered(p.id(RoleExperts, l+1, j), p.id(RoleFFN, l+1, 0))
				}
			}
		}
	})
}

// benchShapeDurations are what a task costs at the standing benchmark's
// decode shape (bench-moe-8x, 16 sequences as 4x4, top-2 of 8) by
// ROADMAP's "Numbers on record", in microseconds: a pass over one
// 448x128 expert matrix takes 21-24 us from L3 at 1, 2 and 4 rows alike,
// so an expert visit (gate, up, down, SiLU, scatter) is ~70 us whatever
// rows it serves; a micro-batch of 4 rows visits ~5.25 experts a layer,
// the layer's 16 rows together visit 8. Attention reads ~50 tokens of KV
// per sequence at ~1 GB/s; a weight page is a quarter of the 169 KB
// shared region at ~11 GB/s. An expert block is one copy of 672 KiB,
// ~30 us: the paging.miss_fetch_gbs probe read 11.7 GB/s of block bytes,
// 59 us a block, while each fetch copied the block twice. A layer
// fetches its 8 blocks as one share per micro-batch.
func benchShapeDurations(layerFFN bool, microBatches int) Durations {
	const visit, routePart = 70, 10 // O projection, norm, router: a 128x128 and an 8x128 matrix
	const block = 30
	d := Durations{
		PreAttn: 12, CPUAttn: 55, QKVOff: 1, HiddenLoad: 1, WeightPage: 4, PinPage: 4,
		PostAttn: routePart + 5.25*visit,
	}
	if layerFFN {
		d.PostAttn, d.FFN = routePart, 8*visit
		d.ExpertShare = 8 * block / float64(microBatches)
	}
	return d
}

// TestExpertSharesHiddenOnPinLane: at the bench shape the expert copies
// cost the step nothing in the simulator — one share per micro-batch on
// the Pin lane runs under the layer's GEMMs at 1, 2 and 4 micro-batches,
// and the makespan equals the one with free copies.
func TestExpertSharesHiddenOnPinLane(t *testing.T) {
	for _, mb := range []int{1, 2, 4} {
		span := map[bool]float64{}
		for _, copies := range []bool{false, true} {
			d := benchShapeDurations(true, mb)
			if !copies {
				d.ExpertShare = 0
			}
			tasks, err := Build(CGOPipe, Plan{Layers: 6, MicroBatches: mb, AttnPages: mb, LayerFFN: true, D: d})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(tasks)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Validate(tasks); err != nil {
				t.Fatal(err)
			}
			span[copies] = res.Makespan
		}
		t.Logf("%d micro-batches: makespan %.0f us, %.0f us with free expert copies", mb, span[true], span[false])
		if span[true] != span[false] {
			t.Errorf("%d micro-batches: makespan %.0f us with %.0f us expert shares, %.0f us without: want them hidden",
				mb, span[true], benchShapeDurations(true, mb).ExpertShare, span[false])
		}
	}
}

// TestLayerFFNPredictedFasterAtBenchShape: where a visit costs the same
// at any row count the tile holds, the simulator prefers one ffn(l) per
// layer to an FFN per micro-batch although the look-ahead no longer
// crosses the layer boundary — the prediction the engine's measured
// step is compared with (CHANGES.md, PR 22).
func TestLayerFFNPredictedFasterAtBenchShape(t *testing.T) {
	span := map[bool]float64{}
	for _, layerFFN := range []bool{false, true} {
		tasks, err := Build(CGOPipe, Plan{Layers: 6, MicroBatches: 4, AttnPages: 4, LayerFFN: layerFFN, D: benchShapeDurations(layerFFN, 4)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tasks)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(tasks); err != nil {
			t.Fatal(err)
		}
		span[layerFFN] = res.Makespan
		t.Logf("layer-wide FFN %v: makespan %.0f us, GPU busy %.0f us, CPU busy %.0f us",
			layerFFN, res.Makespan, res.BusyTime(sim.GPU), res.BusyTime(sim.CPU))
	}
	if span[true] >= span[false] {
		t.Errorf("layer-wide FFN predicted %.0f us a step, per-micro-batch FFN %.0f us: want the layer-wide FFN faster", span[true], span[false])
	}
}

// TestPaperGraphsUnchanged: with LayerFFN unset Build emits the graphs
// it emitted before the field existed, task for task — ids, roles,
// lanes, durations, dependencies, issue order — for every engine plan
// and, with durations and a disk tier, for all five strategies. The
// figures and tables are simulations of these graphs. The digest was
// taken at the commit before LayerFFN; a deliberate change to the
// paper's schedules replaces it.
func TestPaperGraphsUnchanged(t *testing.T) {
	h := fnv.New64a()
	digest := func(tasks []sim.Task) {
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for _, task := range tasks {
			put(uint64(task.ID))
			put(uint64(task.Role))
			put(uint64(task.Layer))
			put(uint64(task.MB))
			put(uint64(task.Lane))
			put(math.Float64bits(task.Duration))
			h.Write([]byte(task.Kind))
			put(uint64(len(task.Deps)))
			for _, d := range task.Deps {
				put(uint64(d))
			}
		}
	}
	eachEnginePlan(t, func(_ string, p Plan, tasks []sim.Task) {
		if !p.LayerFFN {
			digest(tasks)
		}
	})
	d := testDurations()
	disk := d
	disk.DiskWhole, disk.DiskPage = 60, 15
	for _, s := range Strategies() {
		for _, p := range []Plan{
			{Layers: 1, MicroBatches: 1, D: d}, {Layers: 3, MicroBatches: 4, D: d},
			{Layers: 4, MicroBatches: 7, D: disk}, {Layers: 8, MicroBatches: 4, D: d},
		} {
			tasks, err := Build(s, p)
			if err != nil {
				t.Fatal(err)
			}
			digest(tasks)
		}
	}
	if got, want := h.Sum64(), uint64(0x47bd21030709f10d); got != want {
		t.Errorf("graphs without LayerFFN digest to %#x, want %#x", got, want)
	}
}

package batching

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"moelightning/internal/workload"
)

func reqs(lens ...int) []workload.Request {
	out := make([]workload.Request, len(lens))
	for i, l := range lens {
		out[i] = workload.Request{ID: i, PromptLen: l, GenLen: 8}
	}
	return out
}

// finalTokens is a micro-batch's final token count (prompt +
// generation), what a budget of one byte a token without a block
// geometry bounds.
func finalTokens(m MicroBatch, genLen int) int {
	return m.PromptTokens + len(m.Requests)*genLen
}

// atPositions is the micro-batch BatchOrdered's positions name in
// queue.
func atPositions(queue []workload.Request, group []int) MicroBatch {
	var m MicroBatch
	for _, pos := range group {
		m.Requests = append(m.Requests, queue[pos])
		m.PromptTokens += queue[pos].PromptLen
	}
	return m
}

func TestBalancedPartition(t *testing.T) {
	cfg := Config{NumMicroBatches: 2, MicroBatchSize: 2, GenLen: 0, TokenBytes: 1, CacheBytes: 1000}
	batches, aborted, err := Batch(reqs(100, 90, 10, 20), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(aborted) != 0 {
		t.Fatalf("aborted %v", aborted)
	}
	if len(batches) != 2 {
		t.Fatalf("%d batches", len(batches))
	}
	// Greedy: 100->A, 90->B, 20->B(110), 10->A(110): perfectly balanced.
	if Spread(batches) != 0 {
		t.Errorf("spread = %d, want 0 (batches: %+v)", Spread(batches), batches)
	}
}

func TestCacheOverflowAborts(t *testing.T) {
	cfg := Config{NumMicroBatches: 1, MicroBatchSize: 4, GenLen: 10, TokenBytes: 1, CacheBytes: 150}
	batches, aborted, err := Batch(reqs(100, 100), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First request: 100 + 1*10 = 110 <= 150 fits; second: 100+100+2*10
	// = 220 > 150 aborts.
	if len(batches) != 1 || len(batches[0].Requests) != 1 {
		t.Fatalf("batches: %+v", batches)
	}
	if len(aborted) != 1 {
		t.Fatalf("aborted: %+v", aborted)
	}
}

func TestFullPartitionsClose(t *testing.T) {
	cfg := Config{NumMicroBatches: 1, MicroBatchSize: 2, GenLen: 1, TokenBytes: 1, CacheBytes: 1000}
	batches, aborted, err := Batch(reqs(10, 10, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two fill the only partition; the third has nowhere to go.
	if len(batches) != 1 || len(batches[0].Requests) != 2 {
		t.Fatalf("batches: %+v", batches)
	}
	if len(aborted) != 1 {
		t.Fatalf("aborted: %+v", aborted)
	}
}

func TestSortDescendingAssignment(t *testing.T) {
	// Longest requests place first (Alg. 2 line 4): with two partitions
	// the two longest must land in different micro-batches.
	cfg := Config{NumMicroBatches: 2, MicroBatchSize: 2, GenLen: 0, TokenBytes: 1, CacheBytes: 10000}
	batches, _, err := Batch(reqs(500, 490, 5, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		has500, has490 := false, false
		for _, r := range b.Requests {
			if r.PromptLen == 500 {
				has500 = true
			}
			if r.PromptLen == 490 {
				has490 = true
			}
		}
		if has500 && has490 {
			t.Fatal("two longest requests share a micro-batch")
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{NumMicroBatches: 0, MicroBatchSize: 1, TokenBytes: 1, CacheBytes: 1},
		{NumMicroBatches: 1, MicroBatchSize: 0, TokenBytes: 1, CacheBytes: 1},
		{NumMicroBatches: 1, MicroBatchSize: 1, TokenBytes: 1, CacheBytes: 0},
		{NumMicroBatches: 1, MicroBatchSize: 1, GenLen: -1, TokenBytes: 1, CacheBytes: 1},
		// The byte budget needs both halves.
		{NumMicroBatches: 1, MicroBatchSize: 1, TokenBytes: 64},
		{NumMicroBatches: 1, MicroBatchSize: 1, CacheBytes: 4096},
		{NumMicroBatches: 1, MicroBatchSize: 1, CacheTokens: 10, TokenBytes: 64},
		// A token budget alone is no budget: CacheTokens is ignored.
		{NumMicroBatches: 1, MicroBatchSize: 1, CacheTokens: 10},
	}
	for i, cfg := range bad {
		if _, _, err := Batch(nil, cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	ok := Config{NumMicroBatches: 1, MicroBatchSize: 1, TokenBytes: 64, CacheBytes: 4096}
	if _, _, err := Batch(nil, ok); err != nil {
		t.Errorf("byte budget rejected: %v", err)
	}
}

// TestByteBudgetAdmitsMore: the same arena budget spent at the int8
// codec's per-token byte rate places requests a float32 wave must
// defer — the Alg. 2 KV term counted in bytes, not tokens.
func TestByteBudgetAdmitsMore(t *testing.T) {
	const kvDim = 16
	// Per-token payloads for kvDim=16: f32 = 2*16*4 = 128 bytes, int8 =
	// 2*(16 + 4*1) = 40 bytes (kvcache.TokenBytes; hardcoded here to
	// keep the package dependency-free).
	const f32Bytes, int8Bytes = 128, 40
	queue := reqs(40, 40, 40, 40)
	base := Config{NumMicroBatches: 1, MicroBatchSize: 4, GenLen: 10, CacheBytes: 100 * f32Bytes}

	f32cfg := base
	f32cfg.TokenBytes = f32Bytes
	batches, aborted, err := Batch(queue, f32cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Identical to the classic 100-token check: 40+10=50 fits, 80+20=100
	// fits, 120+30 > 100 aborts.
	if len(batches) != 1 || len(batches[0].Requests) != 2 || len(aborted) != 2 {
		t.Fatalf("f32: batches %+v aborted %d, want one 2-request batch and 2 aborted", batches, len(aborted))
	}

	int8cfg := base
	int8cfg.TokenBytes = int8Bytes
	batches, aborted, err = Batch(queue, int8cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || len(batches[0].Requests) != 4 || len(aborted) != 0 {
		t.Fatalf("int8: batches %+v aborted %d, want all 4 placed in one batch", batches, len(aborted))
	}
}

// TestByteBudgetChargesWholeBlocks: with a block geometry the byte
// budget charges each request the whole blocks the paged cache will
// hand it. Prompts of 32 and 31 tokens with 8 generated each need 3
// blocks apiece (39 and 38 tokens), 6 blocks = 96 tokens of an
// 80-token budget, so the second defers; counted in tokens (79) both
// would place. Fits is the same test on an empty micro-batch.
func TestByteBudgetChargesWholeBlocks(t *testing.T) {
	const f32Bytes = 128
	tokens := Config{NumMicroBatches: 1, MicroBatchSize: 2, GenLen: 8, TokenBytes: f32Bytes, CacheBytes: 80 * f32Bytes}
	blocks := tokens
	blocks.BlockTokens = 16
	if _, aborted, err := Batch(reqs(32, 31), tokens); err != nil || len(aborted) != 0 {
		t.Fatalf("token-exact charge: aborted %d (%v), want 0", len(aborted), err)
	}
	batches, aborted, err := Batch(reqs(32, 31), blocks)
	if err != nil || len(batches) != 1 || len(batches[0].Requests) != 1 || len(aborted) != 1 {
		t.Fatalf("block charge: batches %+v aborted %d (%v), want 1 placed, 1 aborted", batches, len(aborted), err)
	}
	if got, want := blocks.Cost(31), 48*f32Bytes; got != want {
		t.Errorf("Cost(31) = %d, want %d (3 blocks)", got, want)
	}
	// 72 + 8 is 5 blocks, the whole budget; 73 + 8 needs a sixth.
	if !blocks.Fits(72) || blocks.Fits(73) {
		t.Errorf("Fits(72), Fits(73) = %v, %v; want true, false", blocks.Fits(72), blocks.Fits(73))
	}
}

// TestSharedPrefixLendsAllButLastToken: a placed request lends at most
// its prompt less its last token, which it always computes itself, so
// a follower's discount never exceeds what the engine maps whichever
// of the two it issues first.
func TestSharedPrefixLendsAllButLastToken(t *testing.T) {
	cfg := Config{NumMicroBatches: 1, MicroBatchSize: 2, GenLen: 8, TokenBytes: 128, CacheBytes: 64 * 128,
		BlockTokens: 16}
	// Request 0 is all prefix (32 + 8 tokens, 3 blocks): it lends 31,
	// one block. The follower (40 + 8 tokens, 3 blocks) is charged 2:
	// 5 blocks, past a 4-block budget that a 2-block discount would meet.
	queue := []workload.Request{
		{ID: 0, PromptLen: 32, PrefixID: 5, PrefixLen: 32},
		{ID: 1, PromptLen: 40, PrefixID: 5, PrefixLen: 32},
	}
	if _, aborted, err := BatchOrdered(queue, cfg); err != nil || len(aborted) != 1 {
		t.Fatalf("aborted %d (%v), want the follower", len(aborted), err)
	}
	cfg.CacheBytes = 80 * 128
	if _, aborted, err := BatchOrdered(queue, cfg); err != nil || len(aborted) != 0 {
		t.Fatalf("aborted %d (%v) at 5 blocks, want 0", len(aborted), err)
	}
}

func TestInputNotMutated(t *testing.T) {
	in := reqs(5, 50, 10)
	cfg := Config{NumMicroBatches: 2, MicroBatchSize: 2, GenLen: 1, TokenBytes: 1, CacheBytes: 1000}
	if _, _, err := Batch(in, cfg); err != nil {
		t.Fatal(err)
	}
	if in[0].PromptLen != 5 || in[1].PromptLen != 50 || in[2].PromptLen != 10 {
		t.Fatal("input order mutated")
	}
}

// TestBatchProperties: conservation (every request placed or aborted
// exactly once), size caps and cache budget respected, for random
// inputs.
func TestBatchProperties(t *testing.T) {
	f := func(lens []uint16, nub, ubs uint8) bool {
		cfg := Config{
			NumMicroBatches: int(nub%8) + 1,
			MicroBatchSize:  int(ubs%16) + 1,
			GenLen:          4,
			TokenBytes:      1,
			CacheBytes:      2000,
		}
		in := make([]workload.Request, len(lens))
		for i, l := range lens {
			in[i] = workload.Request{ID: i, PromptLen: int(l%1500) + 1, GenLen: 4}
		}
		batches, aborted, err := Batch(in, cfg)
		if err != nil {
			return false
		}
		seen := make(map[int]int)
		for _, b := range batches {
			if len(b.Requests) > cfg.MicroBatchSize {
				return false
			}
			if finalTokens(b, cfg.GenLen) > cfg.CacheBytes {
				return false
			}
			sum := 0
			for _, r := range b.Requests {
				seen[r.ID]++
				sum += r.PromptLen
			}
			if sum != b.PromptTokens {
				return false
			}
		}
		for _, r := range aborted {
			seen[r.ID]++
		}
		if len(batches) > cfg.NumMicroBatches {
			return false
		}
		for _, r := range in {
			if seen[r.ID] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBalanceQuality: on paper-shaped workloads the greedy partition
// keeps micro-batch token counts within a single max prompt of each
// other (the point of Alg. 2).
func TestBalanceQuality(t *testing.T) {
	wl := workload.MTBench(32).WithRequests(256)
	requests := wl.Generate(3)
	cfg := Config{NumMicroBatches: 8, MicroBatchSize: 32, GenLen: 32, TokenBytes: 1, CacheBytes: 1 << 20}
	batches, aborted, err := Batch(requests, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(aborted) != 0 {
		t.Fatalf("aborted %d", len(aborted))
	}
	if got := Spread(batches); got > wl.MaxPrompt {
		t.Errorf("spread %d exceeds one max prompt %d", got, wl.MaxPrompt)
	}
}

func TestSpreadEmpty(t *testing.T) {
	if Spread(nil) != 0 {
		t.Error("empty spread")
	}
}

// TestBatchOrderedPreservesCallerOrder: the first request in the queue
// is placed first — no length sort — so the caller's priority order
// decides who defers when capacity runs out. Placements come back as
// positions in the queue.
func TestBatchOrderedPreservesCallerOrder(t *testing.T) {
	// One partition of two slots: the first two queue entries must be
	// the admitted pair regardless of length.
	queue := []workload.Request{
		{ID: 1, PromptLen: 2, GenLen: 2},
		{ID: 2, PromptLen: 3, GenLen: 2},
		{ID: 3, PromptLen: 50, GenLen: 2},
	}
	cfg := Config{NumMicroBatches: 1, MicroBatchSize: 2, GenLen: 2, TokenBytes: 1, CacheBytes: 100}
	batches, aborted, err := BatchOrdered(queue, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batches, [][]int{{0, 1}}) || !reflect.DeepEqual(aborted, []int{2}) {
		t.Errorf("placed %v aborted %v, want [[0 1]] aborted [2]", batches, aborted)
	}
	// Batch, by contrast, sorts length-descending and admits the long
	// request first.
	mbs, _, err := Batch(queue, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mbs[0].Requests[0].ID != 3 {
		t.Errorf("Batch should place the longest prompt first, got %d", mbs[0].Requests[0].ID)
	}
}

// TestBatchOrderedSameCapacitySemantics: for any queue, BatchOrdered
// admits a set that satisfies the same per-micro-batch size and cache
// constraints as Batch, and admitted+aborted is a permutation of the
// input.
func TestBatchOrderedSameCapacitySemantics(t *testing.T) {
	requests := workload.MTBench(8).WithRequests(64).Generate(9)
	cfg := Config{NumMicroBatches: 4, MicroBatchSize: 4, GenLen: 8, TokenBytes: 1, CacheBytes: 220}
	batches, aborted, err := BatchOrdered(requests, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, group := range batches {
		mb := atPositions(requests, group)
		if len(mb.Requests) > cfg.MicroBatchSize {
			t.Fatalf("micro-batch over size: %d", len(mb.Requests))
		}
		if finalTokens(mb, cfg.GenLen) > cfg.CacheBytes {
			t.Fatalf("micro-batch over budget: %d tokens", finalTokens(mb, cfg.GenLen))
		}
		seen += len(mb.Requests)
	}
	if seen+len(aborted) != len(requests) {
		t.Fatalf("admitted %d + aborted %d != %d", seen, len(aborted), len(requests))
	}
	// An already length-sorted queue makes BatchOrdered and Batch agree
	// exactly.
	sorted := append([]workload.Request(nil), requests...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].PromptLen > sorted[j].PromptLen })
	a, aAb, _ := BatchOrdered(sorted, cfg)
	b, bAb, _ := Batch(sorted, cfg)
	var mbs []MicroBatch
	for _, group := range a {
		mbs = append(mbs, atPositions(sorted, group))
	}
	if !reflect.DeepEqual(mbs, b) || !reflect.DeepEqual(atPositions(sorted, aAb).Requests, bAb) {
		t.Error("BatchOrdered on a length-sorted queue must equal Batch")
	}
}

// TestSharedPrefixDiscountAdmitsMore: requests sharing a declared
// prefix charge only their unshared tail once the prefix is placed, so
// a budget that defers plain requests admits the whole sharing cohort —
// the Alg. 2 counterpart of mapping blocks instead of allocating them.
func TestSharedPrefixDiscountAdmitsMore(t *testing.T) {
	queue := make([]workload.Request, 4)
	plain := make([]workload.Request, 4)
	for i := range queue {
		queue[i] = workload.Request{ID: i + 1, PromptLen: 40, GenLen: 10, PrefixID: 7, PrefixLen: 32}
		plain[i] = workload.Request{ID: i + 1, PromptLen: 40, GenLen: 10}
	}
	cfg := Config{NumMicroBatches: 1, MicroBatchSize: 4, GenLen: 10, TokenBytes: 1, CacheBytes: 160, BlockTokens: 16}

	// Without a declared prefix each request is charged 40+10 = 50
	// tokens in 4 blocks (64): two place (128), a third would reach
	// 192 > 160.
	batches, aborted, err := Batch(plain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || len(batches[0].Requests) != 2 || len(aborted) != 2 {
		t.Fatalf("no sharing: %d placed, %d aborted; want 2/2", len(batches[0].Requests), len(aborted))
	}

	batches, aborted, err = Batch(queue, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First charges 4 blocks; followers charge 40-32+10 = 18 tokens, 2
	// blocks each: 64 + 3*32 = 160 <= 160 — all four fit.
	if len(batches) != 1 || len(batches[0].Requests) != 4 || len(aborted) != 0 {
		t.Fatalf("sharing: batches %+v aborted %d, want all 4 placed", batches, len(aborted))
	}
	// PromptTokens stays the real prompt total, not the charged one.
	if batches[0].PromptTokens != 160 {
		t.Errorf("PromptTokens = %d, want 160", batches[0].PromptTokens)
	}
}

// TestSharedPrefixDiscountRules: the discount is block-floored, capped
// below the full prompt (the last token is always computed), scoped per
// prefix id, and nothing without a block geometry — it is defined in
// whole cache blocks.
func TestSharedPrefixDiscountRules(t *testing.T) {
	cfg := Config{NumMicroBatches: 1, MicroBatchSize: 8, GenLen: 0, TokenBytes: 1, CacheBytes: 1 << 20,
		BlockTokens: 16}
	seen := map[int]int{}
	if d := cfg.prefixDiscount(workload.Request{PromptLen: 40, PrefixID: 1, PrefixLen: 32}, seen); d != 0 {
		t.Errorf("unseen prefix discounted %d", d)
	}
	seen[1] = 32
	// Block-aligned full match.
	if d := cfg.prefixDiscount(workload.Request{PromptLen: 40, PrefixID: 1, PrefixLen: 32}, seen); d != 32 {
		t.Errorf("aligned discount = %d, want 32", d)
	}
	// Non-aligned declared prefix floors to whole blocks.
	if d := cfg.prefixDiscount(workload.Request{PromptLen: 40, PrefixID: 1, PrefixLen: 25}, seen); d != 16 {
		t.Errorf("floored discount = %d, want 16", d)
	}
	// A prompt that IS the prefix still charges its last token.
	if d := cfg.prefixDiscount(workload.Request{PromptLen: 33, PrefixID: 1, PrefixLen: 33}, seen); d != 32 {
		t.Errorf("full-prompt discount = %d, want 32", d)
	}
	if d := cfg.prefixDiscount(workload.Request{PromptLen: 32, PrefixID: 1, PrefixLen: 32}, seen); d != 16 {
		t.Errorf("exact-prompt discount = %d, want 16 (last token charged, floored)", d)
	}
	// Sub-block matches share nothing.
	if d := cfg.prefixDiscount(workload.Request{PromptLen: 40, PrefixID: 1, PrefixLen: 8}, seen); d != 0 {
		t.Errorf("sub-block discount = %d, want 0", d)
	}
	// Different prefix id: no discount.
	if d := cfg.prefixDiscount(workload.Request{PromptLen: 40, PrefixID: 2, PrefixLen: 32}, seen); d != 0 {
		t.Errorf("foreign prefix discounted %d", d)
	}
	// No block geometry: no discount.
	cfg.BlockTokens = 0
	if d := cfg.prefixDiscount(workload.Request{PromptLen: 40, PrefixID: 1, PrefixLen: 32}, seen); d != 0 {
		t.Errorf("discount without BlockTokens = %d, want 0", d)
	}
}

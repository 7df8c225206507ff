// Package kvcache implements the CPU-resident paged KV cache (§2.2,
// A.1): per-sequence, per-layer block lists over a fixed pool of
// fixed-size blocks, so memory is allocated in pages rather than
// max-length slabs and capacity accounting is exact.
//
// Each block stores its tokens block-contiguously in two halves, K
// then V. The half layout depends on the cache's DType:
//
//   - F32 (default): [blockTokens, kvDim] float32 rows; BlockView
//     exposes a sequence-layer's context as []tensor.Mat views over
//     those halves — zero copies — which is how attention reads the
//     cache.
//   - Int8: the paper's §3.3 group-quantized codec. Each half holds a
//     packed-code region ([blockTokens, ceil(kvDim/4)] float32 words,
//     four int8 codes per word) followed by a scale region
//     ([blockTokens, ceil(kvDim/32)] float32, one scale per 32-value
//     group). Append quantizes on write; QBlockView exposes the
//     context as []tensor.QBlock views that tensor.AttendMany walks in
//     place, dequantizing a few head-slice rows at a time — the
//     float32 context is never materialized. A token costs
//     ceil(kvDim/4)+ceil(kvDim/32) floats per half instead of kvDim
//     (9/32 of float32 when kvDim is a multiple of 32). A pool's
//     capacity is float32-token bytes (PoolTokens, ArenaFloats), so an
//     Int8 pool holds ~3.5x the tokens in the same arena. Enable it when
//     the KV cache, not compute, bounds batch size: decoded tokens drift
//     from the f32 run within the codec's ~0.4% per-group error, but a
//     quantized pipeline stays bit-identical to a quantized reference.
//
// Code that attends over the cache does not branch on the codec:
// Cache.View points a reusable View at a stream through whichever of
// the two methods applies, and the View's AttnItem and CausalItem hand
// the tensor package an attention problem with that codec's block list
// and scratch (view.go).
//
// # Shared prefixes: refcounts and the hash index
//
// Blocks are refcounted and content-addressed, so sequences whose
// prompts share a leading run of tokens can share physical blocks:
//
//   - Every block carries a reference count. Append allocates private
//     blocks (one reference); AttachPrefix maps existing blocks into
//     another sequence's stream, bumping their counts. Release
//     decrements each block of the sequence; a block leaves its last
//     reader only when that count drops to zero — retiring one reader
//     of a shared prefix never harms the survivors — and then returns
//     to the free pool, or, while the prefix index names it, to the
//     reclaim list below.
//   - IndexPrefix registers a sequence's full (completely appended)
//     blocks in a prefix index keyed by the running FNV-1a chain hash
//     of every token up to and including the block. AttachPrefix
//     resolves a token chain through that index — content addressing,
//     not sequence identity — so any sequence whose prompt hashes to
//     the same chain maps the same physical blocks, zero copies.
//   - Only full blocks are shared or indexed, and a full block is never
//     written: a stream only appends, so its full blocks are final. A
//     follower maps whole blocks and appends its own tokens into
//     private blocks, so no write ever reaches a block another stream
//     reads or the index names. Append refuses one that would, as a
//     safety check.
//
// # Retention: released prefixes stay resolvable until reclaimed
//
// A block whose last reference drops while it is indexed keeps its
// index entry and its bytes: it moves onto a reclaim list ordered by
// release time, so a prompt that opens with the same tokens later —
// in another run, long after its first reader left — maps it as it
// would a live reader's block. Such a cached block counts as free
// (FreeBlocks, UsedBlocks, CheckIdle): Append takes a free block
// first and, only when none is left, reclaims the least recently
// released cached one, deindexing it before its bytes change. Retention
// therefore never fails an Append a plain pool would have served, and
// ErrOutOfBlocks keeps its meaning. The list is intrusive (links in
// the block), so release, reclaim and re-attach are O(1) and allocate
// nothing. Reset drops every cached block with the index.
//
// Invariants: a (sequence, layer) stream's length only advances after
// the token's block is secured and its K/V stored, so a failed Append
// (pool exhaustion included) leaves the stream exactly as it was and
// every length <= stored tokens. Each stream advances independently,
// supporting both token-at-a-time decode and layer-at-a-time prefill.
package kvcache

import (
	"errors"
	"fmt"

	"moelightning/internal/memory"
	"moelightning/internal/tensor"
)

// ErrOutOfBlocks reports block-pool exhaustion on Append. The cache is
// left consistent: the failed token is not recorded, so the sequence
// can be retired (freeing its blocks for the survivors) or retried
// after a Release.
var ErrOutOfBlocks = errors.New("kvcache: out of blocks")

// DType selects the cache's storage codec.
type DType int

const (
	// F32 stores rows as raw float32 (the default; bit-exact).
	F32 DType = iota
	// Int8 stores rows as int8 codes with one float32 scale per
	// GroupSize values, quantized on Append.
	Int8
)

// GroupSize is the Int8 codec's quantization group: one float32 scale
// per 32 consecutive row values.
const GroupSize = tensor.QGroupSize

// DefaultBlockTokens is the engine's standard tokens-per-block
// geometry. Prefix sharing granularity equals the block size: only
// whole blocks are shared, so a coarser block shares less of a prefix
// and a finer one spends more pool entries per sequence.
const DefaultBlockTokens = 16

func (d DType) String() string {
	switch d {
	case F32:
		return "f32"
	case Int8:
		return "int8"
	}
	return fmt.Sprintf("DType(%d)", int(d))
}

// ParseDType maps a knob string ("f32", "float32", "int8") to a DType.
func ParseDType(s string) (DType, error) {
	switch s {
	case "", "f32", "float32":
		return F32, nil
	case "int8":
		return Int8, nil
	}
	return F32, fmt.Errorf("kvcache: unknown KV dtype %q (want f32 or int8)", s)
}

// Cache is a paged KV cache for one model: Layers x sequences, each a
// list of blocks of BlockTokens tokens, each block holding its K rows
// then its V rows.
type Cache struct {
	layers      int
	kvDim       int
	blockTokens int
	dtype       DType

	// Int8 geometry: floats per row = packedCols codes words + groups
	// scales; rowFloats is kvDim for F32.
	packedCols int
	groups     int
	rowFloats  int

	pool   []*block // free blocks: unreferenced and unindexed
	all    []block  // every physical block (pool + cached + assigned), in New's pool order
	arena  *memory.Arena
	blocks map[seqLayer][]*block
	length map[seqLayer]int // tokens appended per sequence per layer

	// prefix is the content-addressed block index: chain hash of all
	// tokens through a full block, per layer, to the physical block
	// holding that span. Entries are registered by IndexPrefix and
	// removed when the block is reclaimed.
	prefix map[prefixKey]*block

	// cached heads the reclaim list, a ring through block.prev/next of
	// the unreferenced blocks the index still names, least recently
	// released first; ncached is its length.
	cached  block
	ncached int

	// allocHook, when set, is consulted before every physical block
	// allocation; a non-nil return forces the allocation to fail as if
	// the pool were exhausted (the ErrOutOfBlocks machinery upstream
	// handles it). Fault injection uses it to exercise exhaustion on a
	// chosen allocation without filling the pool.
	allocHook func() error
}

type seqLayer struct{ seq, layer int }

// block is one physical cache page plus its sharing state. refs counts
// the sequences whose streams include it; when refs drops to zero it
// returns to the pool, or, if indexed, to the reclaim list, where
// prev/next link it (both nil off the list). A block registered in the
// prefix index remembers its chain hash so it can be deindexed on
// reclaim.
type block struct {
	region     memory.Region
	refs       int
	hash       uint64
	layer      int
	indexed    bool
	prev, next *block
}

type prefixKey struct {
	hash  uint64
	layer int
}

// chainSeed/chainExtend implement the FNV-1a chain hash over token
// ids: the hash of a block chain is the hash of every token from
// position 0 through the block's last token, so equal chains imply
// equal full-prefix content (modulo hash collisions over int64 token
// ids, which the synthetic token space cannot manufacture
// accidentally).
const chainSeed uint64 = 1469598103934665603

func chainExtend(h uint64, tokens []int) uint64 {
	const prime = 1099511628211
	for _, t := range tokens {
		u := uint64(t)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime
			u >>= 8
		}
	}
	return h
}

// blockFloats is the size of one block in floats (K and V halves).
func (c *Cache) blockFloats() int { return c.blockTokens * c.rowFloats * 2 }

// halfFloats is the size of one half (all K rows or all V rows).
func (c *Cache) halfFloats() int { return c.blockTokens * c.rowFloats }

// scalesOff is the offset of the scale region within an Int8 half.
func (c *Cache) scalesOff() int { return c.blockTokens * c.packedCols }

// PoolTokens is a layer's capacity, in tokens, of the pool that holds
// f32Tokens float32 tokens' bytes under dtype: the float32 pool's
// blocks (rounded up) re-cut into the codec's (rounded down).
func PoolTokens(kvDim, f32Tokens int, dtype DType) int {
	f32Blocks := (f32Tokens + DefaultBlockTokens - 1) / DefaultBlockTokens
	return f32Blocks * TokenBytes(kvDim, F32) / TokenBytes(kvDim, dtype) * DefaultBlockTokens
}

// ArenaFloats is the arena that pool takes over layers under any codec:
// the F32 pool's floats, which no re-cut exceeds.
func ArenaFloats(layers, kvDim, f32Tokens int) int {
	return layers * PoolTokens(kvDim, f32Tokens, F32) * 2 * kvDim
}

// New builds a cache drawing from the given arena, pre-allocating
// capacityTokens worth of blocks per layer, stored under the given
// dtype's codec.
func New(arena *memory.Arena, layers, kvDim, blockTokens, capacityTokens int, dtype DType) (*Cache, error) {
	if layers <= 0 || kvDim <= 0 || blockTokens <= 0 || capacityTokens <= 0 {
		return nil, fmt.Errorf("kvcache: invalid geometry layers=%d kvDim=%d block=%d capacity=%d",
			layers, kvDim, blockTokens, capacityTokens)
	}
	if dtype != F32 && dtype != Int8 {
		return nil, fmt.Errorf("kvcache: unsupported dtype %v", dtype)
	}
	c := &Cache{
		layers:      layers,
		kvDim:       kvDim,
		blockTokens: blockTokens,
		dtype:       dtype,
		blocks:      make(map[seqLayer][]*block),
		length:      make(map[seqLayer]int),
		prefix:      make(map[prefixKey]*block),
		arena:       arena,
	}
	c.rowFloats = TokenBytes(kvDim, dtype) / 8
	if dtype == Int8 {
		c.packedCols = tensor.PackedCols(kvDim)
		c.groups = tensor.QGroups(kvDim, GroupSize)
	}
	c.all = make([]block, (capacityTokens+blockTokens-1)/blockTokens*layers)
	for i := range c.all {
		r, err := arena.Alloc(c.blockFloats())
		if err != nil {
			return nil, fmt.Errorf("kvcache: preallocating block %d of %d: %w", i, len(c.all), err)
		}
		c.all[i].region = r
	}
	c.Reset()
	return c, nil
}

// Reset returns the cache to the state New leaves it in: every block
// free and unreferenced, no streams, no cached blocks, an empty prefix
// index. It is the recovery from a failed CheckIdle, so a leak costs one
// wave, not every later one.
func (c *Cache) Reset() {
	c.pool = c.pool[:0]
	for i := range c.all {
		b := &c.all[i]
		b.refs, b.indexed, b.prev, b.next = 0, false, nil, nil
		c.pool = append(c.pool, b)
	}
	c.cached.prev, c.cached.next, c.ncached = &c.cached, &c.cached, 0
	clear(c.blocks)
	clear(c.length)
	clear(c.prefix)
}

// takeBlock pops a free block or, when none is left, reclaims the least
// recently released cached one (deindexing it), and resets its sharing
// state to a fresh private block (one reference, unindexed). Returns nil
// when neither is left.
func (c *Cache) takeBlock() *block {
	if len(c.pool) == 0 && c.ncached == 0 {
		return nil
	}
	if c.allocHook != nil && c.allocHook() != nil {
		return nil // forced exhaustion: same path as an empty pool
	}
	var b *block
	if n := len(c.pool); n > 0 {
		b = c.pool[n-1]
		c.pool = c.pool[:n-1]
	} else {
		b = c.cached.next
		c.unpark(b)
		c.deindex(b)
	}
	b.refs = 1
	b.hash = 0
	b.layer = 0
	b.indexed = false
	return b
}

// unref drops one reference. At the last, an indexed block joins the
// reclaim list's tail, still resolvable; any other returns to the pool.
func (c *Cache) unref(b *block) {
	b.refs--
	if b.refs > 0 {
		return
	}
	if !b.indexed {
		c.pool = append(c.pool, b)
		return
	}
	b.prev, b.next = c.cached.prev, &c.cached
	b.prev.next, c.cached.prev = b, b
	c.ncached++
}

// unpark takes a cached block off the reclaim list.
func (c *Cache) unpark(b *block) {
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
	c.ncached--
}

// deindex removes a block's prefix-index registration, if any.
func (c *Cache) deindex(b *block) {
	if !b.indexed {
		return
	}
	key := prefixKey{b.hash, b.layer}
	if c.prefix[key] == b {
		delete(c.prefix, key)
	}
	b.indexed = false
}

// FreeBlocks returns the number of blocks an Append can take: the
// free ones plus the cached ones it would reclaim.
func (c *Cache) FreeBlocks() int { return len(c.pool) + c.ncached }

// BlockTokens returns the tokens-per-block geometry.
func (c *Cache) BlockTokens() int { return c.blockTokens }

// TokenBytes returns the stored payload of one token at one layer
// (both halves) in bytes under a codec: 2*kvDim*4 for F32, 2*(kvDim
// codes packed four to a float32 word + 4 bytes per group scale) for
// Int8. This is what an offload transfer of the token actually ships,
// what movement counters should account, and what pool capacity counts.
func TokenBytes(kvDim int, dtype DType) int {
	if dtype == Int8 {
		return 8 * (tensor.PackedCols(kvDim) + tensor.QGroups(kvDim, GroupSize))
	}
	return 8 * kvDim
}

// TokenBytes returns the cache's own per-token, per-layer payload.
func (c *Cache) TokenBytes() int { return TokenBytes(c.kvDim, c.dtype) }

// Len returns the cached context length of a sequence (its layer-0
// length; layers may transiently differ mid-step during pipelined
// decode).
func (c *Cache) Len(seq int) int { return c.length[seqLayer{seq, 0}] }

// Append stores one token's K and V (each kvDim floats) for a sequence
// at a layer, at that layer's next position, quantizing on write when
// the cache's dtype is Int8. The stream's length is committed only
// after the token's block is secured, so a failed Append —
// ErrOutOfBlocks included — leaves the stream unchanged. A token lands
// in the stream's tail block, which is never full, so never shared or
// indexed; a write into a block another stream reads or the index
// names is refused with an error, as a safety check.
func (c *Cache) Append(seq, layer int, k, v []float32) error {
	if len(k) != c.kvDim || len(v) != c.kvDim {
		return fmt.Errorf("kvcache: k/v dim %d/%d != %d", len(k), len(v), c.kvDim)
	}
	if layer < 0 || layer >= c.layers {
		return fmt.Errorf("kvcache: layer %d out of %d", layer, c.layers)
	}
	key := seqLayer{seq, layer}
	pos := c.length[key]
	blocks := c.blocks[key]
	bi := pos / c.blockTokens
	if bi == len(blocks) {
		b := c.takeBlock()
		if b == nil {
			return fmt.Errorf("%w (seq %d layer %d pos %d)", ErrOutOfBlocks, seq, layer, pos)
		}
		blocks = append(blocks, b)
		c.blocks[key] = blocks
	}
	if bi >= len(blocks) {
		return fmt.Errorf("kvcache: non-contiguous append at pos %d (have %d blocks)", pos, len(blocks))
	}
	if b := blocks[bi]; b.refs > 1 || b.indexed {
		return fmt.Errorf("kvcache: write into a shared or indexed block (seq %d layer %d pos %d)", seq, layer, pos)
	}
	row := pos % c.blockTokens
	data := blocks[bi].region.Data()
	half := c.halfFloats()
	if c.dtype == Int8 {
		so := c.scalesOff()
		tensor.QuantizeRow(data[row*c.packedCols:(row+1)*c.packedCols],
			data[so+row*c.groups:so+(row+1)*c.groups], k, GroupSize)
		tensor.QuantizeRow(data[half+row*c.packedCols:half+(row+1)*c.packedCols],
			data[half+so+row*c.groups:half+so+(row+1)*c.groups], v, GroupSize)
	} else {
		off := row * c.kvDim
		copy(data[off:off+c.kvDim], k)
		copy(data[half+off:half+off+c.kvDim], v)
	}
	c.length[key] = pos + 1
	return nil
}

// BlockView exposes an F32 sequence-layer's cached context in place:
// it appends one tensor.Mat per block to keys and values (each a dense
// [tokensInBlock, kvDim] view over the block's K or V half, the last
// block possibly partial) and returns the slices plus the context
// length. No data is copied; the views alias the cache's blocks and
// stay valid until the sequence is released. Pass keys[:0]/values[:0]
// of reusable slices for allocation-free steady state. Panics on an
// Int8 cache — its rows are codes, not floats; use QBlockView.
func (c *Cache) BlockView(seq, layer int, keys, values []tensor.Mat) (k, v []tensor.Mat, ctx int) {
	if c.dtype != F32 {
		panic("kvcache: BlockView on a quantized cache (use QBlockView)")
	}
	key := seqLayer{seq, layer}
	n := c.length[key]
	blocks := c.blocks[key]
	half := c.halfFloats()
	for bi := 0; bi*c.blockTokens < n; bi++ {
		rows := n - bi*c.blockTokens
		if rows > c.blockTokens {
			rows = c.blockTokens
		}
		data := blocks[bi].region.Data()
		keys = append(keys, tensor.FromSlice(rows, c.kvDim, data[:rows*c.kvDim]))
		values = append(values, tensor.FromSlice(rows, c.kvDim, data[half:half+rows*c.kvDim]))
	}
	return keys, values, n
}

// QBlockView is BlockView for an Int8 cache: it appends one
// tensor.QBlock per block (views over the block's packed codes and
// scales, the last block possibly partial) to keys and values and
// returns the slices plus the context length. No data is copied and
// nothing is dequantized — tensor.AttendMany walks the views in place.
// Panics on an F32 cache.
func (c *Cache) QBlockView(seq, layer int, keys, values []tensor.QBlock) (k, v []tensor.QBlock, ctx int) {
	if c.dtype != Int8 {
		panic("kvcache: QBlockView on an unquantized cache (use BlockView)")
	}
	key := seqLayer{seq, layer}
	n := c.length[key]
	blocks := c.blocks[key]
	half := c.halfFloats()
	so := c.scalesOff()
	for bi := 0; bi*c.blockTokens < n; bi++ {
		rows := n - bi*c.blockTokens
		if rows > c.blockTokens {
			rows = c.blockTokens
		}
		data := blocks[bi].region.Data()
		keys = append(keys, tensor.QBlock{
			Rows: rows, Cols: c.kvDim, Group: GroupSize,
			Codes:  data[:rows*c.packedCols],
			Scales: data[so : so+rows*c.groups],
		})
		values = append(values, tensor.QBlock{
			Rows: rows, Cols: c.kvDim, Group: GroupSize,
			Codes:  data[half : half+rows*c.packedCols],
			Scales: data[half+so : half+so+rows*c.groups],
		})
	}
	return keys, values, n
}

// Release drops the sequence's reference on every block of its
// streams; blocks whose last reference drops return to the pool,
// blocks still referenced by prefix-sharing survivors stay resident.
// Releasing a sequence that holds no blocks — never admitted, or
// already released — is a no-op.
func (c *Cache) Release(seq int) {
	for layer := 0; layer < c.layers; layer++ {
		key := seqLayer{seq, layer}
		for _, b := range c.blocks[key] {
			c.unref(b)
		}
		delete(c.blocks, key)
		delete(c.length, key)
	}
}

// UsedBlocks returns the number of distinct physical blocks currently
// assigned to at least one sequence. A block shared by many sequences
// counts once and a cached block not at all — this is the pool-capacity
// view, all blocks less FreeBlocks.
func (c *Cache) UsedBlocks() int { return len(c.all) - c.FreeBlocks() }

// SetAllocHook installs (or, with nil, removes) the forced-failure
// hook consulted on every physical block allocation: a non-nil return
// makes that allocation fail exactly like pool exhaustion. Call it
// before serving traffic; the hook runs on whichever goroutine
// allocates.
func (c *Cache) SetAllocHook(hook func() error) { c.allocHook = hook }

// CheckIdle verifies that no sequence holds the cache: no live
// streams, every physical block either free (unreferenced, unindexed)
// or cached (unreferenced, indexed, on the reclaim list), and every
// prefix-index entry naming a cached block under its own key. It
// reports the first discrepancy — a leaked (or double-freed) block, an
// indexed block off the reclaim list, a stale stream, a dangling index
// entry — so serving tests can assert leak-freedom after a drain.
// Cached blocks are not leaks: they are the prefixes kept for later
// runs.
func (c *Cache) CheckIdle() error {
	if free := c.FreeBlocks(); free != len(c.all) {
		return fmt.Errorf("kvcache: %d of %d blocks leaked (%d free, %d cached)",
			len(c.all)-free, len(c.all), len(c.pool), c.ncached)
	}
	for i, b := range c.pool {
		if b.refs != 0 || b.indexed {
			return fmt.Errorf("kvcache: pooled block %d carries %d live refs (indexed %v)", i, b.refs, b.indexed)
		}
	}
	for b := c.cached.next; b != &c.cached; b = b.next {
		if b.refs != 0 || !b.indexed {
			return fmt.Errorf("kvcache: cached block carries %d live refs (indexed %v)", b.refs, b.indexed)
		}
	}
	if len(c.blocks) != 0 || len(c.length) != 0 {
		return fmt.Errorf("kvcache: %d block streams / %d lengths survive with no sequence live",
			len(c.blocks), len(c.length))
	}
	for k, b := range c.prefix {
		if b.next == nil || k != (prefixKey{b.hash, b.layer}) {
			return fmt.Errorf("kvcache: prefix-index entry (layer %d) names no cached block", k.layer)
		}
	}
	return nil
}

// IndexPrefix registers sequence seq's full blocks at one layer in the
// prefix index under the chain hash of tokens (the sequence's prompt).
// Only completely appended blocks are registered: a full block is never
// written again, so a registered block keeps the bytes its chain names
// until it is reclaimed. Idempotent, and a chain a live block already
// advertises keeps its entry; a chain only a cached block advertises
// moves to seq's block, and the cached duplicate returns to the free
// pool. Registered blocks outlive seq's Release on the reclaim list, so
// later prompts with the same tokens can attach them. Call it once
// seq's appends at the layer are complete, before a follower's
// AttachPrefix.
func (c *Cache) IndexPrefix(seq, layer int, tokens []int) {
	key := seqLayer{seq, layer}
	n := c.length[key]
	if n > len(tokens) {
		n = len(tokens)
	}
	blocks := c.blocks[key]
	h := chainSeed
	for bi := 0; (bi+1)*c.blockTokens <= n; bi++ {
		h = chainExtend(h, tokens[bi*c.blockTokens:(bi+1)*c.blockTokens])
		b := blocks[bi]
		if b.indexed {
			continue
		}
		pk := prefixKey{h, layer}
		if old, taken := c.prefix[pk]; taken {
			if old.refs > 0 {
				continue
			}
			c.unpark(old)
			old.indexed = false
			c.pool = append(c.pool, old)
		}
		b.hash = h
		b.layer = layer
		b.indexed = true
		c.prefix[pk] = b
	}
}

// IndexedPrefix returns how many leading tokens of the chain, up to n,
// the prefix index resolves at every layer, in whole blocks: what
// AttachPrefix(seq, l, tokens, IndexedPrefix(tokens, n)) maps at each
// layer l into an empty stream.
func (c *Cache) IndexedPrefix(tokens []int, n int) int {
	bt := c.blockTokens
	h := chainSeed
	bi := 0
	for ; (bi+1)*bt <= min(n, len(tokens)); bi++ {
		h = chainExtend(h, tokens[bi*bt:(bi+1)*bt])
		for l := 0; l < c.layers; l++ {
			if _, ok := c.prefix[prefixKey{h, l}]; !ok {
				return bi * bt
			}
		}
	}
	return bi * bt
}

// AttachPrefix maps the leading whole blocks of up to n tokens of the
// given token chain into sequence seq's stream at one layer by resolving
// them through the prefix index: each resolved block is shared in place
// (refcount++, zero copies; a cached block leaves the reclaim list).
// The stream must be empty. A partial block is never mapped: the
// attacher computes the rest of its prompt into blocks of its own.
// Returns the number of tokens attached, a multiple of the block size
// (0 when the index holds no matching chain).
func (c *Cache) AttachPrefix(seq, layer int, tokens []int, n int) int {
	key := seqLayer{seq, layer}
	if c.length[key] != 0 || len(c.blocks[key]) != 0 {
		return 0
	}
	want := min(n, len(tokens)) / c.blockTokens
	var attached []*block
	h := chainSeed
	for bi := 0; bi < want; bi++ {
		h = chainExtend(h, tokens[bi*c.blockTokens:(bi+1)*c.blockTokens])
		b, ok := c.prefix[prefixKey{h, layer}]
		if !ok {
			break
		}
		attached = append(attached, b)
	}
	if len(attached) == 0 {
		return 0
	}
	got := len(attached) * c.blockTokens
	for _, b := range attached {
		if b.refs == 0 {
			c.unpark(b)
		}
		b.refs++
	}
	c.blocks[key] = attached
	c.length[key] = got
	return got
}

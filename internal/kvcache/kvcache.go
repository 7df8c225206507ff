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
//     context as []tensor.QBlock views that tensor.AttendOneBlocksQ
//     walks in place, dequantizing one head-slice row at a time — the
//     float32 context is never materialized. A token costs
//     ceil(kvDim/4)+ceil(kvDim/32) floats per half instead of kvDim
//     (9/32 of float32 when kvDim is a multiple of 32), so the same
//     arena holds ~3.5x the context. Enable it when the KV cache, not
//     compute, bounds batch size: decoded tokens drift from the f32
//     run within the codec's ~0.4% per-group error, but a quantized
//     pipeline stays bit-identical to a quantized reference.
//
// Code that attends over the cache does not branch on the codec:
// Cache.View points a reusable View at a stream through whichever of
// the two methods applies, and the View's AttnItem and CausalItem hand
// the tensor package an attention problem with that codec's block list
// and scratch (view.go).
//
// # Shared prefixes: refcounts, the hash index, and copy-on-write
//
// Blocks are refcounted and content-addressed, so sequences whose
// prompts share a leading run of tokens can share physical blocks:
//
//   - Every block carries a reference count. Append allocates private
//     blocks (one reference); AttachPrefix maps existing blocks into
//     another sequence's stream, bumping their counts. Release
//     decrements each block of the sequence and returns a block to the
//     free pool only when its last reference drops — retiring one
//     reader of a shared prefix never harms the survivors.
//   - IndexPrefix registers a sequence's full (completely appended)
//     blocks in a prefix index keyed by the running FNV-1a chain hash
//     of every token up to and including the block. AttachPrefix
//     resolves a token chain through that index — content addressing,
//     not sequence identity — so any sequence whose prompt hashes to
//     the same chain maps the same physical blocks, zero copies.
//   - A write into a block with other readers (the partially-shared
//     tail block of a non-block-aligned prefix, or a multi-turn
//     continuation into shared history) copies the block to a private
//     one first — copy-on-write — so divergence never corrupts the
//     shared prefix. A write into a still-indexed private block
//     unregisters it instead, keeping the index truthful.
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

	pool      []*block // free blocks
	numBlocks int      // total physical blocks (pool + assigned)
	arena     *memory.Arena
	blocks    map[seqLayer][]*block
	length    map[seqLayer]int // tokens appended per sequence per layer

	// prefix is the content-addressed block index: chain hash of all
	// tokens through a full block, per layer, to the physical block
	// holding that span. Entries are registered by IndexPrefix and
	// removed when the block is freed or written.
	prefix    map[prefixKey]*block
	cowCopies int64

	// allocHook, when set, is consulted before every physical block
	// allocation; a non-nil return forces the allocation to fail as if
	// the pool were exhausted (the ErrOutOfBlocks machinery upstream
	// handles it). Fault injection uses it to exercise exhaustion on a
	// chosen allocation without filling the pool.
	allocHook func() error
}

type seqLayer struct{ seq, layer int }

// block is one physical cache page plus its sharing state. refs counts
// the sequences whose streams include it; it returns to the pool when
// refs drops to zero. A block registered in the prefix index remembers
// its chain hash so it can be deindexed on write or free.
type block struct {
	region  memory.Region
	refs    int
	hash    uint64
	layer   int
	indexed bool
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
	c.rowFloats = kvDim
	if dtype == Int8 {
		c.packedCols = tensor.PackedCols(kvDim)
		c.groups = tensor.QGroups(kvDim, GroupSize)
		c.rowFloats = c.packedCols + c.groups
	}
	numBlocks := (capacityTokens + blockTokens - 1) / blockTokens * layers
	for i := 0; i < numBlocks; i++ {
		r, err := arena.Alloc(c.blockFloats())
		if err != nil {
			return nil, fmt.Errorf("kvcache: preallocating block %d of %d: %w", i, numBlocks, err)
		}
		c.pool = append(c.pool, &block{region: r})
	}
	c.numBlocks = numBlocks
	return c, nil
}

// takeBlock pops a free block and resets its sharing state to a fresh
// private block (one reference, unindexed). Returns nil when the pool
// is exhausted.
func (c *Cache) takeBlock() *block {
	if len(c.pool) == 0 {
		return nil
	}
	if c.allocHook != nil && c.allocHook() != nil {
		return nil // forced exhaustion: same path as an empty pool
	}
	b := c.pool[len(c.pool)-1]
	c.pool = c.pool[:len(c.pool)-1]
	b.refs = 1
	b.hash = 0
	b.layer = 0
	b.indexed = false
	return b
}

// unref drops one reference; the last reference deindexes the block
// and returns it to the pool.
func (c *Cache) unref(b *block) {
	b.refs--
	if b.refs > 0 {
		return
	}
	c.deindex(b)
	c.pool = append(c.pool, b)
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

// FreeBlocks returns the number of unallocated blocks.
func (c *Cache) FreeBlocks() int { return len(c.pool) }

// BlockTokens returns the tokens-per-block geometry.
func (c *Cache) BlockTokens() int { return c.blockTokens }

// DType returns the cache's storage codec.
func (c *Cache) DType() DType { return c.dtype }

// TokenBytes returns the stored payload of one token at one layer
// (both halves) in bytes under a codec: 2*kvDim*4 for F32, 2*(kvDim
// codes + 4 bytes per group scale) for Int8. This is what an offload
// transfer of the token actually ships, and what movement counters
// should account.
func TokenBytes(kvDim int, dtype DType) int {
	if dtype == Int8 {
		return 2 * (kvDim + 4*tensor.QGroups(kvDim, GroupSize))
	}
	return 2 * kvDim * 4
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
// ErrOutOfBlocks included — leaves the stream unchanged. Writing into
// a block that other sequences also reference copies it to a private
// block first (copy-on-write); writing into a private block that is
// still advertised by the prefix index unregisters it instead.
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
	if blocks[bi].refs > 1 {
		// Shared block: copy-on-write before mutating. Pool exhaustion
		// here still leaves the stream untouched — the shared block
		// stays in place and the length is not advanced.
		fresh := c.takeBlock()
		if fresh == nil {
			return fmt.Errorf("%w (seq %d layer %d pos %d: copy-on-write)", ErrOutOfBlocks, seq, layer, pos)
		}
		copy(fresh.region.Data(), blocks[bi].region.Data())
		c.unref(blocks[bi])
		blocks[bi] = fresh
		c.cowCopies++
	} else {
		// Private block, but possibly still advertised to future
		// attachers: its content is about to change, so retract it.
		c.deindex(blocks[bi])
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
// nothing is dequantized — tensor.AttendOneBlocksQ walks the views in
// place. Panics on an F32 cache.
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
// counts once — this is the pool-capacity view, numBlocks-FreeBlocks.
func (c *Cache) UsedBlocks() int { return c.numBlocks - len(c.pool) }

// CowCopies returns the cumulative number of copy-on-write block
// copies performed since the cache was built.
func (c *Cache) CowCopies() int64 { return c.cowCopies }

// SetAllocHook installs (or, with nil, removes) the forced-failure
// hook consulted on every physical block allocation: a non-nil return
// makes that allocation fail exactly like pool exhaustion. Call it
// before serving traffic; the hook runs on whichever goroutine
// allocates.
func (c *Cache) SetAllocHook(hook func() error) { c.allocHook = hook }

// CheckIdle verifies the cache has returned to its freshly-built
// state: every physical block back in the free pool with zero
// references, no live sequence streams, and an empty prefix index. It
// reports the first discrepancy — a leaked (or double-freed) block, a
// stale stream, a dangling index entry — so serving tests can assert
// leak-freedom after a drain.
func (c *Cache) CheckIdle() error {
	if len(c.pool) != c.numBlocks {
		return fmt.Errorf("kvcache: %d of %d blocks leaked (%d free)",
			c.numBlocks-len(c.pool), c.numBlocks, len(c.pool))
	}
	for i, b := range c.pool {
		if b.refs != 0 {
			return fmt.Errorf("kvcache: pooled block %d carries %d live refs", i, b.refs)
		}
	}
	if len(c.blocks) != 0 || len(c.length) != 0 {
		return fmt.Errorf("kvcache: %d block streams / %d lengths survive with an empty pool outstanding",
			len(c.blocks), len(c.length))
	}
	if len(c.prefix) != 0 {
		return fmt.Errorf("kvcache: %d prefix-index entries dangle after all blocks freed", len(c.prefix))
	}
	return nil
}

// IndexPrefix registers sequence seq's full blocks at one layer in the
// prefix index under the chain hash of tokens (the sequence's prompt).
// Only completely appended blocks are registered — a partial tail
// block's content is still mutable. Idempotent and first-writer-wins:
// a chain already advertised by another block keeps its existing
// entry. Call it after the donor's appends at the layer are complete
// and before a follower's AttachPrefix.
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
		if _, taken := c.prefix[pk]; taken {
			continue
		}
		b.hash = h
		b.layer = layer
		b.indexed = true
		c.prefix[pk] = b
	}
}

// AttachPrefix maps up to n leading tokens of the given token chain
// into sequence seq's stream at one layer by resolving whole blocks
// through the prefix index: each resolved block is shared in place
// (refcount++, zero copies). The stream must be empty. When n is not
// block-aligned the final block is shared too, if the donor chain
// covers it — the attacher's first divergent Append into it will
// copy-on-write. Returns the number of tokens attached (a multiple of
// the block size, or exactly n for an aligned/ceil match; 0 when the
// index holds no matching chain). tokens must extend through every
// block consulted, i.e. the donor's own prompt.
func (c *Cache) AttachPrefix(seq, layer int, tokens []int, n int) int {
	key := seqLayer{seq, layer}
	if c.length[key] != 0 || len(c.blocks[key]) != 0 {
		return 0
	}
	if n > len(tokens) {
		n = len(tokens)
	}
	if n <= 0 {
		return 0
	}
	want := (n + c.blockTokens - 1) / c.blockTokens
	if want*c.blockTokens > len(tokens) {
		// The tail block's chain hash needs tokens through the block
		// boundary; the chain doesn't reach it, so share floor blocks.
		want = n / c.blockTokens
	}
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
	if got > n {
		got = n
	}
	for _, b := range attached {
		b.refs++
	}
	c.blocks[key] = attached
	c.length[key] = got
	return got
}

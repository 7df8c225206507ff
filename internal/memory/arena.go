// Package memory provides the functional engine's memory arenas,
// mirroring the paper's A.1 memory-management design: a large CPU arena
// holding the paged weights and KV cache, a small pinned staging arena,
// and a GPU arena with a double-buffered weight region.
//
// Arenas are real float32 buffers. Compute stages may only read data
// that lives in their arena, so forgetting a transfer is a bug the
// functional tests catch — the same discipline a CUDA program gets from
// separate address spaces.
package memory

import (
	"fmt"
	"sync"
)

// Arena is a bump-allocated float32 region with capacity accounting.
type Arena struct {
	name string
	mu   sync.Mutex
	data []float32
	used int
}

// NewArena allocates an arena of capacity floats.
func NewArena(name string, capacity int) *Arena {
	return &Arena{name: name, data: make([]float32, capacity)}
}

// Name returns the arena's label.
func (a *Arena) Name() string { return a.name }

// Used returns the floats allocated so far.
func (a *Arena) Used() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Alloc reserves n floats and returns the region. It fails when the
// arena is exhausted — the functional analogue of CUDA OOM.
func (a *Arena) Alloc(n int) (Region, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.used+n > len(a.data) {
		return Region{}, fmt.Errorf("memory: arena %s exhausted: %d + %d > %d",
			a.name, a.used, n, len(a.data))
	}
	r := Region{arena: a, off: a.used, n: n}
	a.used += n
	return r, nil
}

// MustAlloc is Alloc that panics on exhaustion, for setup code whose
// sizes were validated by the memory model beforehand.
func (a *Arena) MustAlloc(n int) Region {
	r, err := a.Alloc(n)
	if err != nil {
		panic(err)
	}
	return r
}

// Reset releases every allocation (regions become invalid).
func (a *Arena) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.used = 0
}

// Region is an allocated span within an arena.
type Region struct {
	arena *Arena
	off   int
	n     int
}

// Len returns the region length in floats.
func (r Region) Len() int { return r.n }

// Data returns the region's backing slice.
func (r Region) Data() []float32 {
	return r.arena.data[r.off : r.off+r.n]
}

// Slice returns a sub-region [lo, hi).
func (r Region) Slice(lo, hi int) Region {
	if lo < 0 || hi > r.n || lo > hi {
		panic(fmt.Sprintf("memory: slice [%d,%d) out of region of %d", lo, hi, r.n))
	}
	return Region{arena: r.arena, off: r.off + lo, n: hi - lo}
}

// Copy moves data between regions — the functional stand-in for a DMA
// transfer. Lengths must match; cross-arena copies are the only way
// data moves between devices.
func Copy(dst, src Region) {
	if dst.n != src.n {
		panic(fmt.Sprintf("memory: copy length mismatch %d != %d", dst.n, src.n))
	}
	copy(dst.Data(), src.Data())
}

// Package paging implements the weight-paging scheme of §4.1 and A.1:
// a layer's streamed weights are chunked into n pages (n = the number of
// micro-batches in the pipeline), staged CPU -> pinned -> GPU, and the
// GPU holds a double-buffered region of two layer slots so the next
// layer's pages arrive while the current layer computes (Fig. 11).
//
// Expert FFN blocks page individually through ExpertPager: a fixed-size
// resident set with refcount pinning, eviction in the schedule order the
// caller announces, a demand fetch on a miss and a Prefetch that copies
// on the caller's goroutine. Nothing in the package starts a goroutine:
// every copy runs where its caller's schedule puts it.
package paging

import (
	"fmt"

	"moelightning/internal/memory"
)

// PageTable describes the page decomposition of one layer's streamed
// weights: the layer region is split into NumPages near-equal pages,
// page 1 first — the builders place the attention projections at the
// front so pre-attention can start after a single page.
type PageTable struct {
	LayerFloats int
	NumPages    int
}

// NewPageTable validates and builds a page table.
func NewPageTable(layerFloats, numPages int) (PageTable, error) {
	if layerFloats <= 0 || numPages <= 0 {
		return PageTable{}, fmt.Errorf("paging: invalid table %d floats / %d pages", layerFloats, numPages)
	}
	if numPages > layerFloats {
		numPages = layerFloats
	}
	return PageTable{LayerFloats: layerFloats, NumPages: numPages}, nil
}

// PageBounds returns the [lo, hi) float range of page p (0-based).
// Pages differ in size by at most one float.
func (t PageTable) PageBounds(p int) (lo, hi int) {
	if p < 0 || p >= t.NumPages {
		panic(fmt.Sprintf("paging: page %d out of %d", p, t.NumPages))
	}
	base := t.LayerFloats / t.NumPages
	rem := t.LayerFloats % t.NumPages
	lo = p*base + min(p, rem)
	size := base
	if p < rem {
		size++
	}
	return lo, lo + size
}

// PageSize returns the size of page p in floats.
func (t PageTable) PageSize(p int) int {
	lo, hi := t.PageBounds(p)
	return hi - lo
}

// DoubleBuffer is a two-slot layer region (A.1, Fig. 11). On the GPU,
// slot (l mod 2) serves layer l's kernels while layer l+1's pages land
// in the other; in pinned staging, the CPU->pinned copy of layer l+1
// overlaps the pinned->GPU DMA of layer l's remaining pages. The page
// split is the caller's PageTable, so buffers carved once serve any
// page count.
type DoubleBuffer struct {
	slots [2]memory.Region
}

// NewDoubleBuffer carves two slots of layerFloats out of an arena.
func NewDoubleBuffer(arena *memory.Arena, layerFloats int) (*DoubleBuffer, error) {
	var db DoubleBuffer
	for i := range db.slots {
		r, err := arena.Alloc(layerFloats)
		if err != nil {
			return nil, fmt.Errorf("paging: slot %d: %w", i, err)
		}
		db.slots[i] = r
	}
	return &db, nil
}

// Slot returns the region serving layer l.
func (db *DoubleBuffer) Slot(layer int) memory.Region {
	return db.slots[layer%2]
}

// PageRegion returns the region of page p of layer l under table t.
func (db *DoubleBuffer) PageRegion(t PageTable, layer, page int) memory.Region {
	lo, hi := t.PageBounds(page)
	return db.Slot(layer).Slice(lo, hi)
}

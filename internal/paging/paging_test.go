package paging

import (
	"testing"
	"testing/quick"

	"moelightning/internal/memory"
)

func TestPageBoundsPartition(t *testing.T) {
	// Pages must tile [0, LayerFloats) exactly, in order, with sizes
	// differing by at most one.
	f := func(floats, pages uint16) bool {
		lf, np := int(floats)+1, int(pages)+1
		tb, err := NewPageTable(lf, np)
		if err != nil {
			return false
		}
		prev := 0
		minSize, maxSize := lf+1, 0
		for p := 0; p < tb.NumPages; p++ {
			lo, hi := tb.PageBounds(p)
			if lo != prev || hi <= lo {
				return false
			}
			size := hi - lo
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			prev = hi
		}
		return prev == lf && maxSize-minSize <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewPageTableValidates(t *testing.T) {
	if _, err := NewPageTable(0, 4); err == nil {
		t.Error("zero floats")
	}
	if _, err := NewPageTable(10, 0); err == nil {
		t.Error("zero pages")
	}
	tb, err := NewPageTable(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumPages != 3 {
		t.Errorf("pages must clamp to floats: %d", tb.NumPages)
	}
}

func TestPageBoundsPanicsOutOfRange(t *testing.T) {
	tb, _ := NewPageTable(10, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tb.PageBounds(2)
}

func TestDoubleBufferAlternatesSlots(t *testing.T) {
	gpu := memory.NewArena("gpu", 1000)
	db, err := NewDoubleBuffer(gpu, 100)
	if err != nil {
		t.Fatal(err)
	}
	if gpu.Used() != 200 {
		t.Fatalf("double buffer used %d floats, want 200", gpu.Used())
	}
	s0 := db.Slot(0)
	s1 := db.Slot(1)
	s2 := db.Slot(2)
	s0.Data()[0] = 1
	if s1.Data()[0] == 1 {
		t.Fatal("slots alias")
	}
	if s2.Data()[0] != 1 {
		t.Fatal("slot 2 must reuse slot 0")
	}
}

// TestPageRegionWritesLandInSlot: pages tile the slot under whichever
// table the caller pages with, so one buffer follows the page count.
func TestPageRegionWritesLandInSlot(t *testing.T) {
	gpu := memory.NewArena("gpu", 1000)
	db, _ := NewDoubleBuffer(gpu, 100)
	for _, pages := range []int{4, 3} {
		tb, _ := NewPageTable(100, pages)
		for p := 0; p < pages; p++ {
			r := db.PageRegion(tb, 3, p)
			for i := range r.Data() {
				r.Data()[i] = float32(p)
			}
		}
		slot := db.Slot(3).Data()
		for p := 0; p < pages; p++ {
			lo, hi := tb.PageBounds(p)
			for i := lo; i < hi; i++ {
				if slot[i] != float32(p) {
					t.Fatalf("%d pages: slot[%d] = %v, want page %d", pages, i, slot[i], p)
				}
			}
		}
	}
}

func TestStaging(t *testing.T) {
	pinned := memory.NewArena("pinned", 1000)
	tb, _ := NewPageTable(100, 4)
	st, err := NewDoubleBuffer(pinned, tb.LayerFloats)
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Used() != 200 {
		t.Fatalf("staging used %d floats, want 200", pinned.Used())
	}
	a := st.PageRegion(tb, 0, 1)
	b := st.PageRegion(tb, 1, 1)
	a.Data()[0] = 5
	if b.Data()[0] == 5 {
		t.Fatal("staging slots alias")
	}
	c := st.PageRegion(tb, 2, 1)
	if c.Data()[0] != 5 {
		t.Fatal("staging slot parity broken")
	}
}

func TestDoubleBufferOOM(t *testing.T) {
	gpu := memory.NewArena("gpu", 50)
	if _, err := NewDoubleBuffer(gpu, 100); err == nil {
		t.Fatal("want arena exhaustion")
	}
}

func TestEndToEndPagedCopy(t *testing.T) {
	// CPU layer -> pinned pages -> GPU slot must reassemble the layer.
	cpu := memory.NewArena("cpu", 100)
	pinned := memory.NewArena("pinned", 250)
	gpu := memory.NewArena("gpu", 250)
	layer := cpu.MustAlloc(100)
	for i := range layer.Data() {
		layer.Data()[i] = float32(i)
	}
	tb, _ := NewPageTable(100, 7)
	st, _ := NewDoubleBuffer(pinned, tb.LayerFloats)
	db, _ := NewDoubleBuffer(gpu, tb.LayerFloats)
	const v = 5
	for p := 0; p < tb.NumPages; p++ {
		lo, hi := tb.PageBounds(p)
		memory.Copy(st.PageRegion(tb, v, p), layer.Slice(lo, hi))
		memory.Copy(db.PageRegion(tb, v, p), st.PageRegion(tb, v, p))
	}
	for i, got := range db.Slot(v).Data() {
		if got != float32(i) {
			t.Fatalf("slot[%d] = %v, want %v", i, got, i)
		}
	}
}

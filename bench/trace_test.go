package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: 30..40 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // reaches outside: only 90..100 counts
		{ID: 5, Parent: 1, Name: "d", Start: 35, End: 38},  // inside a and b
		{ID: 6, Parent: 3, Name: "grandchild", Start: 30, End: 50},
		{ID: 7, Parent: 99, Name: "orphan", Start: 0, End: 7},
	}
	selfTimes(spans)
	want := map[int]int64{
		1: 100 - (60 - 10) - (100 - 90), // children cover 10..60 and 90..100
		2: 30,
		3: 30 - 20,
		4: 40,
		5: 3,
		6: 20,
		7: 7,
	}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add("x", 0, 0, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	tr.finish(1, time.Now()) // must not panic
}

package paging

import (
	"errors"
	"testing"
)

var errTestFault = errors.New("test fault")

// countdownFault fails the first n attempts, then heals.
func countdownFault(n int) func() error {
	left := n
	return func() error {
		if left > 0 {
			left--
			return errTestFault
		}
		return nil
	}
}

func TestFetchFaultTransientRetries(t *testing.T) {
	var stats Stats
	src := testSource(t, 1, 4, 16)
	p := newTestPager(t, 16, 2, src, &stats)
	p.SetFetchFault(countdownFault(3)) // within the retry budget

	k := ExpertKey{Expert: 1}
	checkBlock(t, k, mustAcquire(t, p, k))
	p.Release(k)
	if got := stats.FetchRetries.Load(); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
	if got := stats.FetchFailures.Load(); got != 0 {
		t.Fatalf("failures = %d, want 0", got)
	}
}

func TestFetchFaultPermanentFailsThenHeals(t *testing.T) {
	var stats Stats
	src := testSource(t, 1, 4, 16)
	p := newTestPager(t, 16, 2, src, &stats)
	p.SetFetchFault(func() error { return errTestFault })

	k := ExpertKey{Expert: 2}
	if _, err := p.Acquire(k); !errors.Is(err, errTestFault) {
		t.Fatalf("Acquire under permanent fault: err = %v, want wrapped test fault", err)
	}
	if got := stats.FetchFailures.Load(); got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}
	if p.Resident(k) {
		t.Fatal("failed fetch left a resident entry")
	}

	// The failed entry was dropped and its slot freed: once the fault
	// clears, the same key demand-fetches cleanly.
	p.SetFetchFault(nil)
	checkBlock(t, k, mustAcquire(t, p, k))
	p.Release(k)

	// Both slots must still be usable after the failure (no slot leak).
	for e := 0; e < 4; e++ {
		kk := ExpertKey{Expert: e}
		checkBlock(t, kk, mustAcquire(t, p, kk))
		p.Release(kk)
	}
}

func TestPrefetchFaultIsBestEffort(t *testing.T) {
	var stats Stats
	src := testSource(t, 1, 4, 16)
	p := newTestPager(t, 16, 2, src, &stats)
	p.SetFetchFault(func() error { return errTestFault })

	k := ExpertKey{Expert: 0}
	p.Prefetch(k)
	waitIdle(t, p)
	if p.Resident(k) {
		t.Fatal("failed prefetch left a resident entry")
	}
	if got := stats.Prefetched.Load(); got != 0 {
		t.Fatalf("prefetched = %d, want 0", got)
	}
	if got := stats.FetchFailures.Load(); got != 1 {
		t.Fatalf("failures = %d, want 1", got)
	}

	// The failed prefetch must not wedge the worker or leak its slot:
	// once the fault clears, both slots fill by prefetch.
	p.SetFetchFault(nil)
	p.Prefetch(k, ExpertKey{Expert: 1})
	waitIdle(t, p)
	if !p.Resident(k) || !p.Resident(ExpertKey{Expert: 1}) {
		t.Fatal("worker did not recover after a failed prefetch")
	}
	checkBlock(t, k, mustAcquire(t, p, k))
	p.Release(k)
	checkByteIdentity(t, &stats, 16)
}

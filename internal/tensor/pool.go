package tensor

import (
	"runtime"
	"sync"
)

// Pool is a persistent worker pool for data-parallel kernels. Workers
// are spawned once at construction and block on a task channel, so the
// hot path never creates goroutines. The caller of ParallelFor executes
// the first chunk itself, which keeps the pool at GOMAXPROCS total
// runnable goroutines and makes a one-worker pool a plain function
// call.
type Pool struct {
	workers int
	tasks   chan poolTask
}

type poolTask struct {
	lo, hi int
	fn     func(lo, hi int)
	wg     *sync.WaitGroup
}

// NewPool builds a pool that fans work out across `workers` execution
// streams (the caller plus workers-1 persistent goroutines). workers
// < 1 is clamped to 1, which yields a pool that runs everything inline.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		// Buffer enough for several concurrent ParallelFor callers
		// (distinct pipeline lanes share the default pool) so enqueue
		// never blocks in practice.
		p.tasks = make(chan poolTask, 8*workers)
		for i := 0; i < workers-1; i++ {
			go func() {
				for t := range p.tasks {
					t.fn(t.lo, t.hi)
					t.wg.Done()
				}
			}()
		}
	}
	return p
}

// Workers returns the pool's parallelism (including the caller).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ParallelFor splits [0, n) into at most Workers() contiguous chunks of
// at least grain elements each, every boundary between two chunks a
// multiple of grain, and runs fn on every chunk, returning when all
// chunks are done. With one worker, one chunk, or a nil pool
// it degrades to a single inline call fn(0, n). fn must not call back
// into ParallelFor on the same pool (kernels are leaf operations).
func (p *Pool) ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if p == nil || p.workers == 1 || chunks <= 1 {
		fn(0, n)
		return
	}
	if chunks > p.workers {
		chunks = p.workers
	}
	size := (n + chunks*grain - 1) / (chunks * grain) * grain
	var wg sync.WaitGroup
	for lo := size; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		p.tasks <- poolTask{lo: lo, hi: hi, fn: fn, wg: &wg}
	}
	fn(0, size)
	wg.Wait()
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// Default returns the shared process-wide pool, sized to
// runtime.GOMAXPROCS at first use.
func Default() *Pool {
	defaultPoolOnce.Do(func() {
		defaultPool = NewPool(runtime.GOMAXPROCS(0))
	})
	return defaultPool
}

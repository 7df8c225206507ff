package engine

import (
	"errors"
	"sync"
	"time"

	"moelightning/internal/workload"
)

// ErrCanceled is the terminal error of a request canceled by its
// submitter. The handle still returns the tokens generated before the
// cancellation took effect.
var ErrCanceled = errors.New("engine: request canceled")

// ErrServerClosed reports a Submit against a closed server.
var ErrServerClosed = errors.New("engine: server closed")

// ErrOverloaded reports a Submit rejected by overload control: the
// pending queue is at its MaxQueuedRequests bound. The request was
// never admitted — fail fast and let the client retry or re-route
// instead of queueing toward a blown deadline.
var ErrOverloaded = errors.New("engine: server overloaded")

// ErrDeadlineExceeded reports a request dropped by deadline
// enforcement: its TTFT budget expired while it was still queued, so
// no prefill was wasted on it and it produced no token.
var ErrDeadlineExceeded = errors.New("engine: deadline exceeded")

// ErrWaveStalled reports a wave that ran past ServeConfig.WaveTimeout:
// its run ends at the next pass boundary and its requests fail with this
// error. The next wave runs under a deadline of its own.
var ErrWaveStalled = errors.New("engine: wave stalled")

// Token is one streamed generation event.
type Token struct {
	// Index is the token's position in the request's output (0-based).
	Index int
	// ID is the generated token id.
	ID int
}

// Handle follows one submitted request through the server: queued, in
// a wave, finished. The package doc draws the state machine and lists
// every legal transition.
type Handle struct {
	// item is the handle's admission view — request, submission time,
	// SLO and deferral count — exactly what PlanWave orders and places.
	// Req, Submitted and SLO are immutable after Submit; the deferral
	// count belongs to the serving goroutine.
	item   AdmissionItem
	cancel <-chan struct{}
	genLen int // effective generation length for this request

	// queued marks the handle as counted in the server's queue gauge.
	// Guarded by the SERVER's mu (it moves with the stats'
	// QueuedRequests), not h.mu.
	queued bool

	done   chan struct{}
	tokens chan Token // buffered for genLen; closed by wake

	mu                sync.Mutex
	out               []int
	err               error
	finished          bool
	firstTok, lastTok time.Time
}

func newHandle(req workload.Request, cancel <-chan struct{}, genLen int, slo SLO) *Handle {
	return &Handle{
		item:   AdmissionItem{Req: req, Submitted: time.Now(), SLO: slo},
		cancel: cancel,
		genLen: genLen,
		done:   make(chan struct{}),
		tokens: make(chan Token, genLen),
	}
}

// Request returns the submitted request.
func (h *Handle) Request() workload.Request { return h.item.Req }

// ID returns the request's id.
func (h *Handle) ID() int { return h.item.Req.ID }

// Tokens streams generated tokens as their decode steps complete — the
// first token arrives right after the wave's prefill, long before the
// wave's final step. The channel is buffered for the request's
// effective generation length (the engine never blocks on a slow
// consumer) and is closed when the request finishes.
func (h *Handle) Tokens() <-chan Token { return h.tokens }

// Done is closed when the request finishes: completed, canceled or
// failed.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the request finishes and returns its generated
// tokens. A canceled request returns the tokens produced before the
// cancellation took effect alongside ErrCanceled.
func (h *Handle) Wait() ([]int, error) {
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.out, h.err
}

// Err returns the request's terminal error: nil while it is still
// running or after success, ErrCanceled after cancellation, or the wave
// error that failed it.
func (h *Handle) Err() error {
	select {
	case <-h.done:
	default:
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// push records and streams one token. Called only from the serving
// goroutine; the buffered channel makes the send non-blocking. A push
// after settle is dropped: a finished handle's tokens and channel never
// change (an invariant check — a wave finalizes its handles only after
// its run has returned).
func (h *Handle) push(index, id int) {
	now := time.Now()
	h.mu.Lock()
	if h.finished {
		h.mu.Unlock()
		return
	}
	h.out = append(h.out, id)
	if index == 0 {
		h.firstTok = now
	}
	h.lastTok = now
	h.mu.Unlock()
	select {
	case h.tokens <- Token{Index: index, ID: id}:
	default: // unreachable: capacity covers the full generation
	}
}

func (h *Handle) canceled() bool {
	if h.cancel == nil {
		return false
	}
	select {
	case <-h.cancel:
		return true
	default:
		return false
	}
}

// settle enters the finished state: from here push drops tokens and Err
// and Wait report err. It does not wake anyone — Done, Wait and a
// Tokens range still block until wake — so the server can fold the
// outcome into its stats first: a client that has seen its request
// finish reads stats that count it. It reports whether this call
// finished the handle; a second call changes nothing.
func (h *Handle) settle(err error) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.finished {
		return false
	}
	h.finished = true
	h.err = err
	return true
}

// wake closes the settled handle's channels. Call it once, after the
// settle that returned true.
func (h *Handle) wake() {
	close(h.tokens)
	close(h.done)
}

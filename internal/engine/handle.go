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

// ErrNoProgress reports that the batcher aborted the exact same request
// set in two consecutive waves: those requests are being starved and
// would defer forever, so they are failed instead of looped.
var ErrNoProgress = errors.New("engine: batcher made no progress (same request set aborted twice in a row)")

// ErrOverloaded reports a Submit rejected by overload control: the
// pending queue is at its configured request or token bound (or, under
// SLO-aware shedding, projected to drain too slowly for the batch's
// TTFT budgets). The request was never admitted — fail fast and let the
// client retry or re-route instead of queueing toward a blown deadline.
var ErrOverloaded = errors.New("engine: server overloaded")

// ErrDeadlineExceeded reports a request dropped by deadline
// enforcement: its TTFT budget expired while it was still queued (no
// prefill was wasted on it), or — under the TPOT guard — its decode
// pace could no longer meet the TPOT budget even if every remaining
// step were free. Tokens generated before the drop are still returned.
var ErrDeadlineExceeded = errors.New("engine: deadline exceeded")

// ErrWaveStalled reports a wave that exceeded the server's watchdog
// timeout. Its requests fail with this error; if the wave also ignored
// the cooperative abort, the server marks itself broken (the wedged
// pipeline still owns the arenas) and fails all later submits fast.
var ErrWaveStalled = errors.New("engine: wave stalled past watchdog timeout")

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
	// SLO and deferral history — exactly what PlanWave orders and
	// places. Req, Submitted and SLO are immutable after Submit; the
	// deferral history belongs to the serving goroutine.
	item   AdmissionItem
	cancel <-chan struct{}
	genLen int // effective generation length for this request
	// qtokens is prompt + effective gen tokens: the queue-bound weight.
	qtokens int

	// queued marks the handle as counted against the server's queue
	// bounds. Guarded by the SERVER's mu (it moves with the stats'
	// QueuedRequests / QueuedTokens), not h.mu.
	queued bool

	done chan struct{}

	mu                sync.Mutex
	tokens            chan Token // lazily allocated; see tokensLocked
	out               []int
	err               error
	finished          bool
	tpotHopeless      bool // TPOT guard verdict: budget irrecoverable
	firstTok, lastTok time.Time
}

// closedTokens is the shared pre-closed channel handed to consumers of
// requests that finished before producing a token (canceled while
// queued, failed at admission): those handles never allocate a
// generation-length buffer.
var closedTokens = func() chan Token {
	ch := make(chan Token)
	close(ch)
	return ch
}()

func newHandle(req workload.Request, cancel <-chan struct{}, genLen int, slo SLO) *Handle {
	if genLen < 0 {
		genLen = 0
	}
	return &Handle{
		item:    AdmissionItem{Req: req, Submitted: time.Now(), SLO: slo},
		cancel:  cancel,
		genLen:  genLen,
		qtokens: req.PromptLen + genLen,
		done:    make(chan struct{}),
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
// consumer) and is closed when the request finishes. The buffer is
// allocated on first use: a request that finishes without producing a
// token — canceled while queued, failed at admission — returns a shared
// closed channel and never pays for one.
func (h *Handle) Tokens() <-chan Token {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tokensLocked()
}

// tokensLocked returns the token channel, allocating it on demand with
// capacity for the request's remaining generation (so pushes from the
// serving goroutine can never block). Callers hold h.mu.
func (h *Handle) tokensLocked() chan Token {
	if h.tokens == nil {
		if h.finished {
			h.tokens = closedTokens
		} else {
			h.tokens = make(chan Token, h.genLen)
		}
	}
	return h.tokens
}

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
// after settle is dropped — an abandoned (watchdog-wedged) wave that
// later unwedges must not write into handles the watchdog failed.
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
	ch := h.tokensLocked()
	h.mu.Unlock()
	select {
	case ch <- Token{Index: index, ID: id}:
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
	if h.tokens == nil {
		// Never streamed and no consumer asked yet: point Tokens() at the
		// shared closed channel instead of allocating one to close.
		h.tokens = closedTokens
	}
	return true
}

// wake closes the settled handle's channels. Call it once, after the
// settle that returned true.
func (h *Handle) wake() {
	h.mu.Lock()
	ch := h.tokens
	h.mu.Unlock()
	if ch != closedTokens {
		close(ch)
	}
	close(h.done)
}

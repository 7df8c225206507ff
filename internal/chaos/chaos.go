// Package chaos is the deterministic fault-injection harness for the
// serving loop: it replays a seeded traffic trace against a live tiny
// server while a seeded faults.Injector corrupts expert fetches and KV
// allocations underneath it, then asserts the standing robustness
// invariants:
//
//   - every submitted handle terminates (completed, canceled, shed,
//     deadline-dropped or failed — never stuck);
//   - every surviving request's tokens are bit-identical to the
//     sequential reference oracle (faults fail requests, never corrupt
//     survivors);
//   - the KV pool returns to its initial free count at every wave
//     boundary (no leaked blocks, audited by the server's end-of-wave
//     kvcache.CheckIdle pass);
//   - Close() returns within a bound even with faults outstanding.
//
// The harness is surfaced as `moebench -exp chaos`.
package chaos

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/faults"
	"moelightning/internal/memory"
	"moelightning/internal/model"
	"moelightning/internal/traffic"
	"moelightning/internal/workload"
)

// Config parameterizes one chaos run. The zero value selects the
// standing scenario: 200 bursty requests, 5% transient expert-fetch
// faults, two forced KV-pool exhaustions, overload control on.
type Config struct {
	// Requests is the trace length (default 200).
	Requests int
	// Seed seeds both the traffic trace and the fault injector.
	Seed int64
	// RPS is the bursty scenario's base arrival rate (default 12).
	RPS float64
	// Speed compresses trace playback (default 8x).
	Speed float64
	// ExpertFaultRate is the per-fetch transient fault probability
	// (default 0.05). Faults under the pager's retry budget are
	// invisible to callers; an unlucky streak fails the fetch and
	// retires the sequences routed to that expert.
	ExpertFaultRate float64
	// KVExhaustions is how many KV block allocations are forced to fail
	// across the run (default 2), spread over its lifetime.
	KVExhaustions int
	// StallEvery / StallFor inject latency stalls at pipeline step
	// boundaries (default off: 0).
	StallEvery int
	StallFor   time.Duration
	// WaveTimeout arms the server's wave watchdog (default 30s — a
	// backstop, not expected to fire at tiny-engine speeds).
	WaveTimeout time.Duration
	// MaxQueuedRequests bounds the server's pending set (default 16),
	// so the bursty trace exercises overload shedding.
	MaxQueuedRequests int
	// CloseBound is how long Close() may take (default 60s).
	CloseBound time.Duration
}

func (c *Config) defaults() {
	if c.Requests <= 0 {
		c.Requests = 200
	}
	if c.Seed == 0 {
		c.Seed = 2024
	}
	if c.RPS <= 0 {
		c.RPS = 12
	}
	if c.Speed <= 0 {
		c.Speed = 8
	}
	if c.ExpertFaultRate == 0 {
		c.ExpertFaultRate = 0.05
	}
	if c.KVExhaustions == 0 {
		c.KVExhaustions = 2
	}
	if c.WaveTimeout == 0 {
		c.WaveTimeout = 30 * time.Second
	}
	if c.MaxQueuedRequests == 0 {
		c.MaxQueuedRequests = 16
	}
	if c.CloseBound == 0 {
		c.CloseBound = 60 * time.Second
	}
}

// Schema identifies the chaos harness's JSON result format.
const Schema = "moelightning/bench-chaos/v1"

// Report is a chaos run's machine-readable outcome.
type Report struct {
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Requests int    `json:"requests"`

	// Request dispositions. Submitted counts admitted requests; Shed
	// counts ErrOverloaded rejections (Submitted + Shed == Requests).
	Submitted       int `json:"submitted"`
	Completed       int `json:"completed"`
	Canceled        int `json:"canceled"`
	Failed          int `json:"failed"`
	Shed            int `json:"shed"`
	DeadlineDropped int `json:"deadline_dropped"`

	// Fault accounting from the injector's hooks.
	FaultRetries  int64 `json:"fault_retries"`
	FaultFailures int64 `json:"fault_failures"`
	WaveTimeouts  int   `json:"wave_timeouts"`

	// Invariant verdicts.
	LeakedBlockWaves int    `json:"leaked_block_waves"`
	Unterminated     int    `json:"unterminated"`
	SurvivorsChecked int    `json:"survivors_checked"`
	Mismatched       int    `json:"mismatched"`
	CloseMillis      int64  `json:"close_ms"`
	CloseWithinBound bool   `json:"close_within_bound"`
	CloseErr         string `json:"close_err,omitempty"`
}

// Run executes one chaos scenario and verifies its invariants. The
// returned error is non-nil when an invariant is violated (leaked
// blocks, a survivor mismatching the reference, an unterminated handle,
// Close overrunning its bound); fault-origin request failures are the
// harness's normal diet and are only recorded in the report.
func Run(cfg Config) (Report, error) {
	cfg.defaults()
	rep := Report{Schema: Schema, Seed: cfg.Seed, Requests: cfg.Requests}

	scn := traffic.BurstyMix(cfg.RPS, cfg.Requests)
	rep.Scenario = scn.Name
	trace, err := scn.Generate(cfg.Seed)
	if err != nil {
		return rep, err
	}

	// Forced KV exhaustions spread across the run's allocation stream
	// (1-based lifetime ordinals; the exact wave they land in depends on
	// arrival timing, the invariants hold wherever they strike).
	failAt := make([]int, 0, cfg.KVExhaustions)
	for i := 0; i < cfg.KVExhaustions; i++ {
		failAt = append(failAt, 50+150*i)
	}
	inj := faults.New(faults.Config{
		Seed:            cfg.Seed,
		ExpertFetchRate: cfg.ExpertFaultRate,
		KVAllocFailAt:   failAt,
		StallEvery:      cfg.StallEvery,
		StallFor:        cfg.StallFor,
	})

	// The server is built over engine directly (not the facade) because
	// the bit-identity check needs the *engine.Weights to drive the
	// sequential reference oracle.
	m := model.Tiny()
	const (
		microBatch = 4
		numMicro   = 2
		genLen     = 10
		maxContext = 64
	)
	host, err := engine.NewHost(m, cfg.Seed, microBatch*numMicro, maxContext, 0)
	if err != nil {
		return rep, err
	}
	srv, err := engine.NewServer(host, engine.ServeConfig{
		Config: engine.Config{
			MicroBatch:   microBatch,
			MaxContext:   maxContext,
			SharedPrefix: true,
			Faults:       inj,
		},
		AdmissionPolicy: engine.AdmissionPolicy{
			SLOAware:          true,
			MaxQueuedRequests: cfg.MaxQueuedRequests,
		},
		NumMicroBatches:    numMicro,
		GenLen:             genLen,
		CacheTokens:        microBatch * maxContext,
		Vocab:              m.VocabSize,
		HonorRequestGenLen: true,
		EnforceDeadlines:   true,
		WaveTimeout:        cfg.WaveTimeout,
	})
	if err != nil {
		return rep, err
	}

	// Play the trace open-loop, capturing every admitted handle for the
	// post-run invariants (arrivals submit from concurrent goroutines).
	var hmu sync.Mutex
	var admitted []*engine.Handle
	submit := func(req workload.Request, slo traffic.SLO) (*engine.Handle, error) {
		h, err := srv.SubmitSLO(req, slo, nil)
		if err != nil {
			return nil, err
		}
		hmu.Lock()
		admitted = append(admitted, h)
		hmu.Unlock()
		return h, nil
	}
	if _, err := traffic.Run(submit, trace, traffic.RunConfig{Speed: cfg.Speed}); err != nil {
		srv.Close()
		return rep, err
	}

	// Bounded close: the drain must finish even with faults in flight.
	closeCh := make(chan error, 1)
	closeStart := time.Now()
	go func() { closeCh <- srv.Close() }()
	var closeErr error
	select {
	case closeErr = <-closeCh:
		rep.CloseWithinBound = true
	case <-time.After(cfg.CloseBound):
	}
	rep.CloseMillis = time.Since(closeStart).Milliseconds()
	if closeErr != nil {
		rep.CloseErr = closeErr.Error()
	}

	st := srv.Stats()
	rep.Submitted = st.Submitted
	rep.Completed = st.Completed
	rep.Canceled = st.Canceled
	rep.Failed = st.Failed
	rep.Shed = st.Shed
	rep.DeadlineDropped = st.DeadlineDropped
	rep.FaultRetries = st.FaultRetries
	rep.FaultFailures = st.FaultFailures
	rep.WaveTimeouts = st.WaveTimeouts
	rep.LeakedBlockWaves = st.KVLeaks

	if !rep.CloseWithinBound {
		return rep, fmt.Errorf("chaos: Close did not return within %v", cfg.CloseBound)
	}

	// Every admitted handle must have terminated once Close returned.
	var survivors []*engine.Handle
	for _, h := range admitted {
		select {
		case <-h.Done():
			if h.Err() == nil {
				survivors = append(survivors, h)
			}
		default:
			rep.Unterminated++
		}
	}

	// Survivors must be bit-identical to the sequential oracle: faults
	// fail requests, they never corrupt the ones that completed.
	for _, h := range survivors {
		rep.SurvivorsChecked++
		got, _ := h.Wait()
		want, rerr := referenceTokens(host.W, h.Request(), m.VocabSize, maxContext, len(got))
		if rerr != nil {
			return rep, fmt.Errorf("chaos: reference replay of request %d: %w", h.ID(), rerr)
		}
		if !slices.Equal(got, want) {
			rep.Mismatched++
		}
	}

	switch {
	case rep.Unterminated > 0:
		return rep, fmt.Errorf("chaos: %d handles never terminated", rep.Unterminated)
	case rep.Mismatched > 0:
		return rep, fmt.Errorf("chaos: %d of %d survivors diverged from the reference", rep.Mismatched, rep.SurvivorsChecked)
	case rep.LeakedBlockWaves > 0:
		return rep, fmt.Errorf("chaos: %d waves leaked KV blocks", rep.LeakedBlockWaves)
	}
	return rep, nil
}

// referenceTokens replays one request through the sequential oracle.
func referenceTokens(w *engine.Weights, req workload.Request, vocab, maxContext, genLen int) ([]int, error) {
	if genLen == 0 {
		return nil, nil
	}
	prompts := engine.PromptsFromRequests([]workload.Request{req}, vocab)
	arena := memory.NewArena("chaos-ref", 4*maxContext*w.Cfg.KVDim()*w.Cfg.Layers+1<<16)
	ref, err := engine.NewReference(w, arena, 1, maxContext)
	if err != nil {
		return nil, err
	}
	out, err := ref.Generate(prompts, genLen)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

package moelightning

import (
	"fmt"
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/faults"
	"moelightning/internal/kvcache"
)

// Streaming-server types, re-exported from the engine. They are
// aliases, so values flow freely between the facade and any code that
// works with the engine package.
type (
	// Server is the long-lived streaming inference API over the
	// functional CGOPipe engine. NewServer builds weights and memory
	// arenas once; Submit admits requests at any time, without waiting on
	// a running wave, and returns a Handle whose Tokens() channel carries
	// tokens as decode steps complete; an admission loop re-runs the
	// Alg. 2 batcher over (deferred + newly arrived) requests at every
	// wave boundary; Close drains and shuts down.
	Server = engine.Server
	// Token is one streamed generation event: the token's position in
	// its request's output and the generated token id.
	Token = engine.Token
	// Handle follows one submitted request: Tokens() streams tokens as
	// decode steps complete, Wait() blocks for the final output, Done()
	// signals completion.
	Handle = engine.Handle
	// ServerStats snapshots serving metrics: TTFT, TPOT (means and
	// p50/p95/p99), tokens-per-second, wave, deferral and SLO
	// met/miss counts, data movement.
	ServerStats = engine.ServerStats
	// SLO is a request's latency service-level objective: a
	// time-to-first-token budget from submission and a per-output-token
	// budget after the first. Zero fields mean "no target".
	SLO = engine.SLO
	// KVDtype selects the KV cache codec (KVFloat32 or KVInt8).
	KVDtype = kvcache.DType
	// FaultInjector is a deterministic, seeded fault injector threaded
	// through the serving pipeline's expert fetches, KV block
	// allocations and wave stalls (see internal/faults for the
	// injection-point inventory). Build one with NewFaultInjector.
	FaultInjector = faults.Injector
	// FaultsConfig parameterizes a FaultInjector.
	FaultsConfig = faults.Config
	// FaultStats snapshots an injector's trial/fault counters.
	FaultStats = faults.Stats
)

// NewFaultInjector builds a deterministic fault injector for
// ServerConfig.Faults. A nil injector (the default) is inert.
func NewFaultInjector(cfg FaultsConfig) *FaultInjector { return faults.New(cfg) }

// KV cache codecs for ServerConfig.KVDtype.
const (
	// KVFloat32 stores KV rows as raw float32 — the default, bit-exact
	// against every pre-quantization test vector.
	KVFloat32 = kvcache.F32
	// KVInt8 stores KV rows as int8 codes with one float32 scale per
	// 32-value group (§3.3): ~9/32 the cache footprint per token, so
	// the same cache arena holds ~3.5x the context. Attention
	// dequantizes rows in place; decoded tokens can drift from a
	// float32 run within the codec's quantization error.
	KVInt8 = kvcache.Int8
)

// ParseKVDtype maps a knob string ("f32", "float32", "int8") to a
// KVDtype, for CLI flags.
func ParseKVDtype(s string) (KVDtype, error) { return kvcache.ParseDType(s) }

// Serving errors.
var (
	// ErrCanceled is a canceled request's terminal error; the handle
	// still returns the tokens generated before cancellation took
	// effect.
	ErrCanceled = engine.ErrCanceled
	// ErrServerClosed reports a Submit against a closed server.
	ErrServerClosed = engine.ErrServerClosed
	// ErrOverloaded reports a Submit rejected by overload control: the
	// pending queue is at its MaxQueuedRequests bound. The request was
	// never admitted; fail fast and retry or re-route.
	ErrOverloaded = engine.ErrOverloaded
	// ErrDeadlineExceeded reports a request dropped by deadline
	// enforcement: its TTFT budget expired while it was queued.
	ErrDeadlineExceeded = engine.ErrDeadlineExceeded
	// ErrWaveStalled reports a wave that ran past WaveTimeout: its
	// requests fail with it, and the next wave runs under its own
	// deadline.
	ErrWaveStalled = engine.ErrWaveStalled
)

// ServerConfig parameterizes a long-lived functional serving instance.
// The zero value plus a Model is usable: sizes default to 2x2 waves,
// 8 tokens, 128 context. Prefix sharing needs no setting: requests whose
// prompts open with the same whole KV blocks (e.g. a common system
// prompt, declared via Request.PrefixID/PrefixLen so a wave's admission
// charges it once) map those blocks and skip prefilling them, within a
// wave and across waves, with output bit-identical to computing them.
type ServerConfig struct {
	// Model is the MoE architecture to serve. Like RunFunctional, the
	// server executes real float32 math, so only tiny configs (TinyMoE)
	// are supported.
	Model ModelConfig
	// Seed makes the synthetic weights deterministic.
	Seed int64
	// MicroBatchSize and NumMicroBatches shape each serving wave
	// (Alg. 2 batching); defaults 2 and 2.
	MicroBatchSize  int
	NumMicroBatches int
	// GenLen is the wave generation length; default 8. A request
	// generates its own GenLen tokens when 0 < GenLen < this, stopping
	// early and freeing its KV slot for the next wave, and this many
	// otherwise.
	GenLen int
	// MaxContext is each sequence slot's share of the KV cache in
	// float32 tokens; default 128. It sizes admission too: a micro-batch
	// holds MicroBatchSize x MaxContext, charged in whole cache blocks,
	// and Submit refuses a request an empty micro-batch cannot hold.
	MaxContext int
	// KVDtype selects the KV cache codec: KVFloat32 (the zero value)
	// or KVInt8 for the §3.3 group-quantized cache.
	KVDtype KVDtype
	// PrefillChunk is one prompt pass's token budget: the prompt phase
	// runs in passes of at most this many prompt tokens (<= 0 selects
	// the engine default).
	PrefillChunk int
	// ExpertResidencyBytes caps the GPU-resident expert-weight pool the
	// engine's pager keeps warm (rounded down to whole expert blocks,
	// minimum one; <= 0 selects two layers' expert sets). Any value is
	// safe: a routed-to expert that is not resident demand-fetches
	// synchronously, so a small budget costs time, never correctness.
	ExpertResidencyBytes int
	// SLOAware is ignored: admission has one order, read from what each
	// request carries. At every wave boundary the (deferred + newly
	// arrived) queue is ordered by TTFT deadline slack (SubmitSLO's
	// targets; a request without one has infinite slack), then by
	// descending prompt length as in Alg. 2, so a queue without targets
	// is the classic length-sorted pass. Starvation is bounded at 3: a
	// request deferred three consecutive boundaries jumps to the front
	// and is placed at the next one. The field stays because the
	// standing benchmark's workloads (bench/workloads.go) set it, until
	// ROADMAP item 7 revises that frozen code.
	SLOAware bool
	// MaxQueuedRequests bounds the admitted-but-not-yet-dispatched set:
	// a Submit that would push past it fails fast with ErrOverloaded.
	// <= 0 disables the bound.
	MaxQueuedRequests int
	// EnforceDeadlines fails queued requests whose TTFT budget expired
	// before a wave picked them up (ErrDeadlineExceeded), sparing the
	// prefill.
	EnforceDeadlines bool
	// WaveTimeout is each wave's deadline (ErrWaveStalled): a stalled
	// wave ends at its next pass boundary, so Close never waits on it
	// for long. 0 sets no deadline.
	WaveTimeout time.Duration
	// Faults threads a deterministic fault injector (NewFaultInjector)
	// through every wave's pipeline. Nil — the default — injects
	// nothing and installs no hooks.
	Faults *FaultInjector
}

func (c *ServerConfig) defaults() {
	if c.MicroBatchSize <= 0 {
		c.MicroBatchSize = 2
	}
	if c.NumMicroBatches <= 0 {
		c.NumMicroBatches = 2
	}
	if c.GenLen <= 0 {
		c.GenLen = 8
	}
	if c.MaxContext <= 0 {
		c.MaxContext = 128
	}
}

// NewServer validates the configuration, builds the weights and arenas,
// and starts the serving loop.
func NewServer(cfg ServerConfig) (*Server, error) {
	host, ecfg, err := newHost(cfg)
	if err != nil {
		return nil, err
	}
	return engine.NewServer(host, ecfg)
}

// newHost validates cfg and builds the host it serves on, with the
// engine configuration it serves under: the one place the flat public
// ServerConfig is mapped onto the engine's options.
func newHost(cfg ServerConfig) (*engine.Host, engine.ServeConfig, error) {
	cfg.defaults()
	if err := cfg.Model.Validate(); err != nil {
		return nil, engine.ServeConfig{}, err
	}
	if cfg.Model.TotalParams() > 50_000_000 {
		return nil, engine.ServeConfig{}, fmt.Errorf("moelightning: %s has %d parameters; the functional engine is for tiny configs (use TinyMoE)",
			cfg.Model.Name, cfg.Model.TotalParams())
	}
	ecfg := engine.ServeConfig{
		Config: engine.Config{
			MicroBatch:           cfg.MicroBatchSize,
			MaxContext:           cfg.MaxContext,
			KVDtype:              cfg.KVDtype,
			PrefillChunk:         cfg.PrefillChunk,
			ExpertResidencyBytes: cfg.ExpertResidencyBytes,
			Faults:               cfg.Faults,
		},
		NumMicroBatches:   cfg.NumMicroBatches,
		GenLen:            cfg.GenLen,
		MaxQueuedRequests: cfg.MaxQueuedRequests,
		EnforceDeadlines:  cfg.EnforceDeadlines,
		WaveTimeout:       cfg.WaveTimeout,
	}
	host, err := engine.NewHost(cfg.Model, cfg.Seed, ecfg.MicroBatch*ecfg.NumMicroBatches, ecfg.MaxContext, ecfg.ExpertResidencyBytes)
	return host, ecfg, err
}

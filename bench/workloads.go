package main

import (
	"math"
	"math/rand"
	"time"

	"moelightning"
	"moelightning/internal/model"
)

// The fixed set-up every workload shares. bench-moe-8x is defined here,
// not as a model preset: 6 layers of 8 experts at the paper's 3.5x FFN
// ratio, 8.6M parameters (33 MiB f32, 672 KiB per expert block), so the
// weights exceed L2 and expert paging is real memory traffic.
const (
	weightSeed      = 1234 // the model is part of the system, not of the seeded input
	microBatchSize  = 4
	numMicroBatches = 4
	waveSeqs        = microBatchSize * numMicroBatches
	warmupRequests  = 16

	ttftLimit = 500 * time.Millisecond
	tpotLimit = 50 * time.Millisecond
)

func benchModel() model.Config {
	return model.Config{
		Name: "bench-moe-8x", Layers: 6,
		Hidden: 128, Intermediate: 448,
		QHeads: 8, KVHeads: 2, HeadDim: 16,
		Experts: 8, TopK: 2,
		VocabSize:   512,
		WeightDType: model.F32, KVDType: model.F32,
	}
}

// The online ladder: fixed arrival rates in requests per second. The
// end-to-end run plays the base rung, low enough that the server keeps
// up even when the host grants it a sixth of its CPU; the traced run
// plays all three, the top one past the capacity of a quiet host.
var ladder = []phaseSpec{{"low", 3}, {"mid", 8}, {"high", 16}}

const baseRung = 0

type phaseSpec struct {
	name string
	rps  float64
}

// spec is one named workload: how its requests are drawn, how the
// server is configured for it and how the load is offered.
type spec struct {
	name string
	// open selects an arrival schedule (independent users); otherwise the
	// load is closed batches of roundSize requests, one after another.
	open      bool
	roundSize int
	// genLen is the server's wave generation length; maxContext bounds a
	// sequence (prompt + generation, a multiple of the KV block size).
	genLen, maxContext int
	kv                 moelightning.KVDtype
	// tight caps expert residency at one block, so every expert
	// acquisition is a demand fetch.
	tight bool
	// checkSample is how many requests the reference check re-derives;
	// drivenSeqs is the size of the representative wave the traced run
	// drives through engine.NewPipeline.
	checkSample, drivenSeqs int
	// newDraw returns a fresh generator of the workload's requests.
	newDraw func() drawFunc
}

// drawFunc draws the id-th request of a stream.
type drawFunc = func(rng *rand.Rand, seed int64, id int) genRequest

// genRequest is a generated request with the cohort it belongs to and
// the limits it is sent with (zero for offline requests).
type genRequest struct {
	req    moelightning.Request
	cohort string
	slo    moelightning.SLO
}

func uniform(rng *rand.Rand, lo, hi int) int { return lo + rng.Intn(hi-lo+1) }

func drawDecode(rng *rand.Rand, _ int64, id int) genRequest {
	return genRequest{cohort: "decode", req: moelightning.Request{ID: id, PromptLen: uniform(rng, 8, 32), GenLen: 48}}
}

func drawPrefill(rng *rand.Rand, _ int64, id int) genRequest {
	return genRequest{cohort: "prefill", req: moelightning.Request{ID: id, PromptLen: uniform(rng, 256, 512), GenLen: 4}}
}

// mixDeck is the online mix's cohort shares, ten requests at a time:
// chat 50%, agentic 30%, rag 20%.
var mixDeck = [10]string{"chat", "chat", "chat", "chat", "chat", "agentic", "agentic", "agentic", "rag", "rag"}

// newDrawMix returns the online mix's generator. chat and agentic each
// open with their own 64-token shared system prompt (its content
// follows the seed like every other token); rag brings a long unshared
// prompt. Cohorts are dealt from a deck reshuffled every ten requests,
// so every seed offers the same mix in a different order and a short
// window's cost does not hinge on how many rag prompts it drew.
func newDrawMix() drawFunc {
	deck, left := mixDeck, 0
	return func(rng *rand.Rand, seed int64, id int) genRequest {
		if left == 0 {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			left = len(deck)
		}
		left--
		g := genRequest{cohort: deck[left], slo: moelightning.SLO{TTFT: ttftLimit, TPOT: tpotLimit}}
		switch g.cohort {
		case "chat":
			g.req = moelightning.Request{ID: id, PromptLen: 64 + uniform(rng, 8, 32), GenLen: 16, PrefixID: int(2*seed + 1), PrefixLen: 64}
		case "agentic":
			g.req = moelightning.Request{ID: id, PromptLen: 64 + uniform(rng, 2, 10), GenLen: 6, PrefixID: int(2*seed + 2), PrefixLen: 64}
		default:
			g.req = moelightning.Request{ID: id, PromptLen: uniform(rng, 128, 256), GenLen: 8}
		}
		return g
	}
}

func stateless(d drawFunc) func() drawFunc { return func() drawFunc { return d } }

var specs = []spec{
	{name: "offline_decode", roundSize: waveSeqs, genLen: 48, maxContext: 80,
		kv: moelightning.KVFloat32, checkSample: 16, drivenSeqs: waveSeqs, newDraw: stateless(drawDecode)},
	{name: "offline_prefill", roundSize: waveSeqs / 2, genLen: 4, maxContext: 528,
		kv: moelightning.KVFloat32, checkSample: 8, drivenSeqs: waveSeqs, newDraw: stateless(drawPrefill)},
	{name: "offline_tight", roundSize: waveSeqs, genLen: 48, maxContext: 80,
		kv: moelightning.KVInt8, tight: true, checkSample: 16, drivenSeqs: waveSeqs, newDraw: stateless(drawDecode)},
	{name: "online_mix", open: true, genLen: 16, maxContext: 272,
		kv: moelightning.KVFloat32, checkSample: 16, drivenSeqs: 2, newDraw: newDrawMix},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// serverConfig is the ServerConfig the workload runs against. Requests
// carry their own GenLen (equal to the wave length offline), so the
// short warm-up batch does not cost a full-length wave.
func (s spec) serverConfig() moelightning.ServerConfig {
	cfg := moelightning.ServerConfig{
		Model:           benchModel(),
		Seed:            weightSeed,
		MicroBatchSize:  microBatchSize,
		NumMicroBatches: numMicroBatches,
		GenLen:          s.genLen,
		MaxContext:      s.maxContext,
		KVDtype:         s.kv,
		SLOAware:        s.open,
	}
	if s.tight {
		cfg.ExpertResidencyBytes = int(benchModel().ExpertBlockBytes())
	}
	return cfg
}

// Request ids carry the prompt content (the engine hashes tokens from
// the id), so ids are spread by seed: stream k of seed n owns the ids
// from idBase(n, k) up.
const (
	streamTimed  = 0 // the end-to-end window (and the traced run, same seed same list)
	streamWarmup = 1
	streamLadder = 2 // + rung index, for the traced run's low and high phases
)

func idBase(seed int64, stream int) int { return int(seed)*10_000_000 + stream*1_000_000 + 1 }

func streamRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// requestStream yields the workload's requests for one seed in order;
// closed rounds take consecutive slices of it.
type requestStream struct {
	draw drawFunc
	seed int64
	rng  *rand.Rand
	next int
}

func (s spec) stream(seed int64, stream int) *requestStream {
	return &requestStream{draw: s.newDraw(), seed: seed, rng: streamRNG(seed, stream), next: idBase(seed, stream)}
}

func (rs *requestStream) take(n int) []genRequest {
	out := make([]genRequest, n)
	for i := range out {
		out[i] = rs.draw(rs.rng, rs.seed, rs.next)
		rs.next++
	}
	return out
}

// warmup is the untimed batch every fresh server serves before timing:
// short prompts and four tokens, the same for every workload so that
// setup_s compares across them.
func warmup(seed int64) []moelightning.Request {
	rng := streamRNG(seed, streamWarmup)
	reqs := make([]moelightning.Request, warmupRequests)
	for i := range reqs {
		reqs[i] = moelightning.Request{ID: idBase(seed, streamWarmup) + i, PromptLen: uniform(rng, 8, 32), GenLen: 4}
	}
	return reqs
}

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	due time.Duration // offset from the phase start
	genRequest
}

// schedule draws an arrival schedule at rps over dur: one arrival in
// each 1/rps slot, at a uniform instant within it. Every seed sends the
// same number of requests at different instants. Independent (Poisson)
// instants were tried first: how many arrivals happen to fall inside
// one wave then differs by seed, and with ~40 requests that alone moved
// tokens per busy second by 22% between seeds (README.md, "How the
// bounds were measured"). Requests and instants come from one
// generator, so the schedule is a pure function of (seed, stream).
func (s spec) schedule(seed int64, stream int, rps float64, dur time.Duration) []arrival {
	rs := s.stream(seed, stream)
	out := make([]arrival, int(math.Round(rps*dur.Seconds())))
	slot := float64(dur) / float64(len(out))
	for i := range out {
		out[i].due = time.Duration((float64(i) + rs.rng.Float64()) * slot)
	}
	for i, g := range rs.take(len(out)) {
		out[i].genRequest = g
	}
	return out
}

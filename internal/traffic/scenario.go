package traffic

import (
	"fmt"
	"math/rand"
	"time"

	"moelightning/internal/workload"
)

// Cohort couples a request-shape distribution with a latency SLO and a
// traffic share: one kind of user in a mixed serving scenario.
type Cohort struct {
	Name string
	// Shape is the cohort's prompt-length distribution and generation
	// length (workload.Config semantics; NumRequests is unused — the
	// scenario's arrival process decides how many requests exist).
	Shape workload.Config
	// Weight is the cohort's relative share of arrivals.
	Weight float64
	// SLO is the cohort's latency target; the zero SLO opts the cohort
	// out of goodput accounting (pure best-effort traffic).
	SLO SLO
	// SystemPromptTokens prepends a deterministic per-cohort system
	// prompt of this many tokens to every request of the cohort: each
	// generated request carries PrefixID (hashed from the cohort name)
	// and PrefixLen, its PromptLen grows by the prefix, and the
	// synthetic prompt derivation expands the same token run for every
	// request of the cohort — so replayed traces exercise shared-prefix
	// KV reuse exactly like production system prompts do. Zero means no
	// shared prefix.
	SystemPromptTokens int
}

func (c Cohort) validate() error {
	if c.Name == "" {
		return fmt.Errorf("traffic: cohort without a name")
	}
	if c.Weight <= 0 {
		return fmt.Errorf("traffic: cohort %s: weight %v must be positive", c.Name, c.Weight)
	}
	if c.SystemPromptTokens < 0 {
		return fmt.Errorf("traffic: cohort %s: negative SystemPromptTokens %d", c.Name, c.SystemPromptTokens)
	}
	shape := c.Shape
	shape.NumRequests = 1 // unused by cohorts; satisfy workload validation
	if err := shape.Validate(); err != nil {
		return err
	}
	return nil
}

// prefixID derives a stable nonzero prefix id from a cohort name
// (FNV-1a over the name, folded to 31 bits, nudged off zero), so the
// same cohort always names the same shared system prompt — across
// scenarios, seeds and replays.
func prefixID(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	id := int(h & 0x7fffffff)
	if id == 0 {
		id = 1
	}
	return id
}

// Scenario is a seeded open-loop traffic description: one arrival
// process shared by a weighted set of cohorts, for a fixed number of
// requests.
type Scenario struct {
	Name        string
	Arrival     Process
	Cohorts     []Cohort
	NumRequests int
}

// Validate reports malformed scenarios.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("traffic: scenario without a name")
	}
	if s.Arrival == nil {
		return fmt.Errorf("traffic: scenario %s: no arrival process", s.Name)
	}
	if err := s.Arrival.validate(); err != nil {
		return err
	}
	if s.NumRequests <= 0 {
		return fmt.Errorf("traffic: scenario %s: NumRequests %d must be positive", s.Name, s.NumRequests)
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("traffic: scenario %s: no cohorts", s.Name)
	}
	for _, c := range s.Cohorts {
		if err := c.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Scale returns the scenario with every arrival rate multiplied by f —
// the cohort mix, shapes and SLOs are untouched, so a saturation sweep
// varies exactly one thing.
func (s Scenario) Scale(f float64) Scenario {
	s.Arrival = s.Arrival.Scale(f)
	return s
}

// Generate draws the scenario's trace: arrival offsets from the
// process, then a weighted cohort pick and a prompt-length sample per
// arrival, all from one seeded generator. The same seed yields the
// identical trace — arrival times, cohort assignment, request shapes —
// byte for byte.
func (s Scenario) Generate(seed int64) (Trace, error) {
	if err := s.Validate(); err != nil {
		return Trace{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	arrivals := s.Arrival.Arrivals(rng, s.NumRequests)
	total := 0.0
	for _, c := range s.Cohorts {
		total += c.Weight
	}
	tr := Trace{
		Scenario: s.Name,
		Arrival:  s.Arrival.Name(),
		Seed:     seed,
		Events:   make([]Event, s.NumRequests),
	}
	for i, at := range arrivals {
		pick := rng.Float64() * total
		cohort := s.Cohorts[len(s.Cohorts)-1]
		for _, c := range s.Cohorts {
			if pick < c.Weight {
				cohort = c
				break
			}
			pick -= c.Weight
		}
		req := workload.Request{
			ID:        i + 1,
			PromptLen: cohort.Shape.Sample(rng),
			GenLen:    cohort.Shape.GenLen,
		}
		if cohort.SystemPromptTokens > 0 {
			req.PrefixID = prefixID(cohort.Name)
			req.PrefixLen = cohort.SystemPromptTokens
			req.PromptLen += cohort.SystemPromptTokens
		}
		tr.Events[i] = Event{
			At:      at,
			Cohort:  cohort.Name,
			Request: req,
			SLO:     cohort.SLO,
		}
	}
	return tr, nil
}

// Cohort presets, sized for the tiny functional engine (MaxContext 64):
// the same four production archetypes the ROADMAP names, scaled so a
// laptop-scale server can saturate in seconds. Weights approximate a
// consumer mix: chat dominates, agentic chains add many small requests,
// RAG and batch summarization are the long-prompt minority.

// ChatCohort is interactive chat: short prompts, medium generation,
// tight TTFT, and a shared 16-token system prompt — one KV block at
// the engine's default geometry, so every chat request past the first
// in a wave maps the prefix instead of prefilling it.
func ChatCohort() Cohort {
	return Cohort{
		Name: "chat",
		Shape: workload.Config{
			Name: "chat", AvgPrompt: 10, MaxPrompt: 24, MinPrompt: 3,
			GenLen: 8, Skew: 0.1,
		},
		Weight:             4,
		SLO:                SLO{TTFT: 400 * time.Millisecond, TPOT: 60 * time.Millisecond},
		SystemPromptTokens: 16,
	}
}

// RAGCohort is retrieval-augmented generation: long stuffed prompts,
// short answers, a looser TTFT to cover prefill.
func RAGCohort() Cohort {
	return Cohort{
		Name: "rag",
		Shape: workload.Config{
			Name: "rag", AvgPrompt: 28, MaxPrompt: 44, MinPrompt: 14,
			GenLen: 6, Skew: 0.15,
		},
		Weight: 2,
		SLO:    SLO{TTFT: 1200 * time.Millisecond, TPOT: 80 * time.Millisecond},
	}
}

// AgenticCohort is tool-calling agents: many short turns, the tightest
// TTFT (each turn blocks a chain).
func AgenticCohort() Cohort {
	return Cohort{
		Name: "agentic",
		Shape: workload.Config{
			Name: "agentic", AvgPrompt: 5, MaxPrompt: 10, MinPrompt: 2,
			GenLen: 4, Skew: 0,
		},
		Weight:             3,
		SLO:                SLO{TTFT: 250 * time.Millisecond, TPOT: 60 * time.Millisecond},
		SystemPromptTokens: 16,
	}
}

// SummarizeCohort is batch summarization: the longest prompts and
// generations, deadline-insensitive.
func SummarizeCohort() Cohort {
	return Cohort{
		Name: "summarize",
		Shape: workload.Config{
			Name: "summarize", AvgPrompt: 38, MaxPrompt: 52, MinPrompt: 24,
			GenLen: 10, Skew: 0,
		},
		Weight: 1,
		SLO:    SLO{TTFT: 5 * time.Second, TPOT: 200 * time.Millisecond},
	}
}

// PoissonChat is the steady-state scenario: chat plus agentic traffic
// arriving as a homogeneous Poisson stream at rps.
func PoissonChat(rps float64, n int) Scenario {
	return Scenario{
		Name:        "poisson-chat",
		Arrival:     Poisson{RPS: rps},
		Cohorts:     []Cohort{ChatCohort(), AgenticCohort()},
		NumRequests: n,
	}
}

// BurstyMix is the stress scenario: all four cohorts under an MMPP
// arrival stream whose burst state runs 4x the base rate — the regime
// where admission order decides who blows their deadline.
func BurstyMix(rps float64, n int) Scenario {
	return Scenario{
		Name: "bursty-mix",
		Arrival: Bursty{
			BaseRPS: rps, BurstRPS: 4 * rps,
			MeanBase: 1500 * time.Millisecond, MeanBurst: 500 * time.Millisecond,
		},
		Cohorts:     []Cohort{ChatCohort(), RAGCohort(), AgenticCohort(), SummarizeCohort()},
		NumRequests: n,
	}
}

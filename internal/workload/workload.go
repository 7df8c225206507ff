// Package workload describes inference workloads — the W in the paper's
// T(M, H, W, P) model — and generates request sets whose prompt-length
// distributions match the paper's benchmarks (Tab. 3).
//
// The paper replicates MTBench's 80 questions into thousands of requests
// and evaluates with several generation lengths; HELM synthetic
// reasoning and summarization provide short-uniform and long-prompt
// regimes. We reproduce the three distributions from their published
// (s_avg, s_max) statistics with seeded generators, so every run is
// deterministic.
package workload

import (
	"fmt"
	"math/rand"
)

// Request is one inference request.
type Request struct {
	ID int
	// PromptLen is the number of prompt tokens, including any shared
	// system-prompt prefix (the first PrefixLen tokens).
	PromptLen int
	// GenLen is the number of tokens to generate.
	GenLen int
	// PrefixID names the shared system prompt this request opens with,
	// 0 for none. Requests with equal PrefixID derive identical leading
	// PrefixLen tokens, so a prefix-sharing KV cache can map them to
	// the same physical blocks.
	PrefixID int
	// PrefixLen is the token length of the shared prefix (<= PromptLen;
	// meaningful only when PrefixID != 0).
	PrefixLen int
}

// Config describes a workload (Tab. 1, W; Tab. 3).
type Config struct {
	Name string
	// AvgPrompt and MaxPrompt are the prompt-length statistics (s).
	AvgPrompt int
	MaxPrompt int
	// MinPrompt anchors the low end of the distribution.
	MinPrompt int
	// GenLen is the generation length per request (n).
	GenLen int
	// NumRequests is how many requests the benchmark replays.
	NumRequests int
	// Skew shapes the length distribution: 0 = symmetric triangular
	// around AvgPrompt, >0 = right-tailed (a few long prompts), <0 =
	// left-tailed.
	Skew float64
}

// Validate reports an error for inconsistent configs.
func (c Config) Validate() error {
	switch {
	case c.AvgPrompt <= 0 || c.GenLen <= 0 || c.NumRequests <= 0:
		return fmt.Errorf("workload: %s: non-positive sizes", c.Name)
	case c.MaxPrompt < c.AvgPrompt:
		return fmt.Errorf("workload: %s: MaxPrompt (%d) < AvgPrompt (%d)", c.Name, c.MaxPrompt, c.AvgPrompt)
	case c.MinPrompt > c.AvgPrompt:
		return fmt.Errorf("workload: %s: MinPrompt (%d) > AvgPrompt (%d)", c.Name, c.MinPrompt, c.AvgPrompt)
	case c.MinPrompt < 0:
		return fmt.Errorf("workload: %s: negative MinPrompt", c.Name)
	}
	return nil
}

// WithGenLen returns a copy with a different generation length, used by
// the Fig. 7 sweeps over gen ∈ {32, 64, 128, 256}.
func (c Config) WithGenLen(n int) Config {
	c.GenLen = n
	return c
}

// WithRequests returns a copy with a different request count.
func (c Config) WithRequests(n int) Config {
	c.NumRequests = n
	return c
}

// Generate produces a deterministic request set matching the
// distribution. The sample mean is nudged to land within ~1% of
// AvgPrompt so downstream capacity math is stable across seeds.
func (c Config) Generate(seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, c.NumRequests)
	for i := range reqs {
		reqs[i] = Request{ID: i, PromptLen: c.sample(rng), GenLen: c.GenLen}
	}
	c.recenter(reqs)
	return reqs
}

// Sample draws one prompt length from the distribution with the
// caller's generator. This is the per-request entry point the traffic
// harness's cohort generators use; Generate remains the whole-set path
// (with its mean recentering).
func (c Config) Sample(rng *rand.Rand) int { return c.sample(rng) }

// sample draws one prompt length. The generator mixes a triangular body
// with a tail controlled by Skew, clamped to [MinPrompt, MaxPrompt].
func (c Config) sample(rng *rand.Rand) int {
	min, avg, max := float64(c.MinPrompt), float64(c.AvgPrompt), float64(c.MaxPrompt)
	if min >= max {
		return int(avg)
	}
	var v float64
	if c.Skew > 0 && rng.Float64() < c.Skew {
		// Tail draw: uniform between avg and max.
		v = avg + rng.Float64()*(max-avg)
	} else {
		// Body: triangular around the average.
		u := rng.Float64() + rng.Float64()
		if u > 1 {
			u = 2 - u
		}
		span := avg - min
		if span > max-avg {
			span = max - avg
		}
		if span < 1 {
			span = 1
		}
		if rng.Intn(2) == 0 {
			v = avg - u*span
		} else {
			v = avg + u*span
		}
	}
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return int(v + 0.5)
}

// recenter shifts sampled lengths so that the mean matches AvgPrompt.
func (c Config) recenter(reqs []Request) {
	if len(reqs) == 0 {
		return
	}
	var sum int
	for _, r := range reqs {
		sum += r.PromptLen
	}
	delta := c.AvgPrompt - sum/len(reqs)
	if delta == 0 {
		return
	}
	for i := range reqs {
		p := reqs[i].PromptLen + delta
		if p < c.MinPrompt {
			p = c.MinPrompt
		}
		if p > c.MaxPrompt {
			p = c.MaxPrompt
		}
		reqs[i].PromptLen = p
	}
}

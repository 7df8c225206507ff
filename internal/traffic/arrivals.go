package traffic

import (
	"fmt"
	"math/rand"
	"time"
)

// Process is an open-loop arrival process: it draws request arrival
// offsets from time zero using the caller's seeded generator, so a
// process plus a seed is a reproducible timeline.
type Process interface {
	// Name identifies the process (and its rates) in traces.
	Name() string
	// Arrivals draws the first n arrival offsets, ascending.
	Arrivals(rng *rand.Rand, n int) []time.Duration
	validate() error
}

// expGap draws one exponential inter-arrival gap at rate rps.
func expGap(rng *rand.Rand, rps float64) float64 {
	return rng.ExpFloat64() / rps
}

// Poisson is a homogeneous Poisson process: independent exponential
// inter-arrival gaps at a constant rate.
type Poisson struct {
	RPS float64
}

func (p Poisson) Name() string { return fmt.Sprintf("poisson(%.3g rps)", p.RPS) }

func (p Poisson) validate() error {
	if p.RPS <= 0 {
		return fmt.Errorf("traffic: poisson rate %v must be positive", p.RPS)
	}
	return nil
}

func (p Poisson) Arrivals(rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, 0, n)
	t := 0.0
	for len(out) < n {
		t += expGap(rng, p.RPS)
		out = append(out, secs(t))
	}
	return out
}

// Bursty is a two-state Markov-modulated Poisson process (MMPP-2): the
// process alternates between a calm state at BaseRPS and a burst state
// at BurstRPS, with exponentially distributed sojourn times. State
// switches at an exponential boundary discard the in-flight gap and
// redraw at the new rate — exact for exponential gaps (memorylessness),
// so the generated timeline is a true MMPP sample.
type Bursty struct {
	BaseRPS, BurstRPS   float64
	MeanBase, MeanBurst time.Duration
}

func (b Bursty) Name() string {
	return fmt.Sprintf("bursty(%.3g/%.3g rps, %v/%v)", b.BaseRPS, b.BurstRPS, b.MeanBase, b.MeanBurst)
}

func (b Bursty) validate() error {
	if b.BaseRPS <= 0 || b.BurstRPS <= 0 {
		return fmt.Errorf("traffic: bursty rates %v/%v must be positive", b.BaseRPS, b.BurstRPS)
	}
	if b.MeanBase <= 0 || b.MeanBurst <= 0 {
		return fmt.Errorf("traffic: bursty sojourns %v/%v must be positive", b.MeanBase, b.MeanBurst)
	}
	return nil
}

func (b Bursty) Arrivals(rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, 0, n)
	t := 0.0
	burst := false
	stateEnd := rng.ExpFloat64() * b.MeanBase.Seconds()
	for len(out) < n {
		rate := b.BaseRPS
		if burst {
			rate = b.BurstRPS
		}
		next := t + expGap(rng, rate)
		if next >= stateEnd {
			t = stateEnd
			burst = !burst
			mean := b.MeanBase
			if burst {
				mean = b.MeanBurst
			}
			stateEnd = t + rng.ExpFloat64()*mean.Seconds()
			continue
		}
		t = next
		out = append(out, secs(t))
	}
	return out
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

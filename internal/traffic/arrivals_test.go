package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestPoissonMeanGap: the empirical mean inter-arrival gap converges to
// 1/rate.
func TestPoissonMeanGap(t *testing.T) {
	p := Poisson{RPS: 20}
	rng := rand.New(rand.NewSource(7))
	const n = 4000
	arr := p.Arrivals(rng, n)
	if len(arr) != n {
		t.Fatalf("got %d arrivals, want %d", len(arr), n)
	}
	mean := arr[n-1].Seconds() / float64(n)
	if math.Abs(mean-1.0/20) > 0.004 {
		t.Errorf("mean gap %.4fs, want ~%.4fs", mean, 1.0/20)
	}
	for i := 1; i < n; i++ {
		if arr[i] < arr[i-1] {
			t.Fatalf("arrivals not ascending at %d", i)
		}
	}
}

// TestBurstyRate: the realized rate lands near the sojourn-weighted
// average, and the burst state is measurably hotter than the base state
// (gaps cluster: more short gaps than a flat Poisson at the same mean).
func TestBurstyRate(t *testing.T) {
	b := Bursty{BaseRPS: 5, BurstRPS: 50, MeanBase: time.Second, MeanBurst: time.Second}
	rng := rand.New(rand.NewSource(3))
	const n = 6000
	arr := b.Arrivals(rng, n)
	rate := float64(n) / arr[n-1].Seconds()
	want := (b.BaseRPS + b.BurstRPS) / 2 // equal sojourns weigh both states alike
	if math.Abs(rate-want)/want > 0.15 {
		t.Errorf("realized rate %.1f rps, want ~%.1f", rate, want)
	}
	// Burstiness: the squared coefficient of variation of gaps exceeds
	// 1 (a homogeneous Poisson process has CV^2 = 1 exactly).
	var sum, sumsq float64
	prev := 0.0
	for _, a := range arr {
		g := a.Seconds() - prev
		prev = a.Seconds()
		sum += g
		sumsq += g * g
	}
	mean := sum / float64(n)
	cv2 := (sumsq/float64(n) - mean*mean) / (mean * mean)
	if cv2 < 1.2 {
		t.Errorf("gap CV^2 = %.2f, want > 1.2 for an MMPP with 10x rate contrast", cv2)
	}
}

// TestArrivalsDeterministic: the same seed reproduces the identical
// timeline for every process; a different seed does not.
func TestArrivalsDeterministic(t *testing.T) {
	procs := []Process{
		Poisson{RPS: 8},
		Bursty{BaseRPS: 4, BurstRPS: 16, MeanBase: time.Second, MeanBurst: 300 * time.Millisecond},
	}
	for _, p := range procs {
		a := p.Arrivals(rand.New(rand.NewSource(42)), 200)
		b := p.Arrivals(rand.New(rand.NewSource(42)), 200)
		c := p.Arrivals(rand.New(rand.NewSource(43)), 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different timelines", p.Name())
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced identical timelines", p.Name())
		}
	}
}

// TestProcessValidation: malformed processes are rejected.
func TestProcessValidation(t *testing.T) {
	bad := []Process{
		Poisson{},
		Bursty{BaseRPS: 1, BurstRPS: 2},
	}
	for _, p := range bad {
		if err := p.validate(); err == nil {
			t.Errorf("%T %v: expected validation error", p, p)
		}
	}
}

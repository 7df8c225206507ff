// Package policy searches the paper's policy space (§4.2): the 6-tuple
// (N, μ, A_g, F_g, r_w, r_c) minimizing per-layer decode latency — equi-
// valently maximizing estimated throughput — subject to the GPU and CPU
// memory constraints. The paper solves this with a small MILP; the space
// is tiny after discretization, so we search it exhaustively with
// feasibility pruning, which finds the same optimum deterministically.
//
// The package also provides emulations of the baseline systems' policy
// makers (FlexGen's and DeepSpeed ZeRO-Inference's) used by Tab. 5 and
// Fig. 1: same search skeleton, but driven by those systems' blind spots
// (no kernel-saturation term, no per-micro-batch expert weight re-read).
//
// The search is estimator-agnostic: Optimize scores candidates through
// whatever efficiency model the perfmodel.Input carries, so an Input
// whose Eff is a measured calibration table (internal/calib) searches
// over this machine's real kernel rates instead of the analytic spec
// curve — same space, same tie-breaks, calibrated scores.
package policy

import (
	"errors"
	"math"
	"sort"

	"moelightning/internal/perfmodel"
)

// options configure a search.
type options struct {
	muGrid      []int
	rwGrid      []float64
	rcGrid      []float64
	rdGrid      []float64
	attnChoices []bool
	ffnChoices  []bool
	maxN        int
	kvBudget    float64
}

// Option customizes Optimize.
type Option func(*options)

// WithMuGrid overrides the micro-batch grid.
func WithMuGrid(mus ...int) Option {
	return func(o *options) { o.muGrid = mus }
}

// WithGPUAttn fixes A_g instead of searching both.
func WithGPUAttn(v bool) Option {
	return func(o *options) { o.attnChoices = []bool{v} }
}

// WithRwGrid overrides the static weight-placement grid (used to pin
// r_w = 0 when searching shapes for the functional engine, whose
// weights always stream through the pager).
func WithRwGrid(rws ...float64) Option {
	return func(o *options) { o.rwGrid = rws }
}

// WithCPUFFNAllowed adds F_g = 0 (static weights placement, §3.3) to the
// search; by default only F_g = 1 is explored, as in the paper's main
// settings.
func WithCPUFFNAllowed() Option {
	return func(o *options) { o.ffnChoices = []bool{true, false} }
}

// WithMaxN caps the batch size (used to pin N for ablations).
func WithMaxN(n int) Option {
	return func(o *options) { o.maxN = n }
}

// WithKVBudget pins the attention KV budget (§C sparsity extension) on
// every candidate policy.
func WithKVBudget(b float64) Option {
	return func(o *options) { o.kvBudget = b }
}

func defaultOptions() options {
	return options{
		muGrid:      []int{1, 2, 4, 8, 12, 16, 24, 32, 36, 48, 64, 96, 100, 128, 156, 192, 256},
		rwGrid:      []float64{0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1},
		rcGrid:      []float64{0, 0.25, 0.5, 0.75, 1},
		rdGrid:      []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1},
		attnChoices: []bool{false, true},
		ffnChoices:  []bool{true},
		maxN:        1 << 20,
	}
}

// ErrNoFeasiblePolicy is returned when nothing in the space fits memory.
var ErrNoFeasiblePolicy = errors.New("policy: no feasible policy in search space")

// Result is the outcome of a search.
type Result struct {
	Policy perfmodel.Policy
	Report perfmodel.Report
	// Evaluated and Feasible count search effort.
	Evaluated, Feasible int
}

// Optimize searches the policy space for the input and returns the best
// feasible policy. Deterministic: ties are broken toward smaller N, then
// larger μ (better kernel efficiency at equal throughput), then CPU
// attention (frees link bandwidth).
func Optimize(in perfmodel.Input, opts ...Option) (Result, error) {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	e, err := perfmodel.New(in)
	if err != nil {
		return Result{}, err
	}

	var res Result
	type candidate struct {
		p     perfmodel.Policy
		score float64
	}
	var cands []candidate
	consider := func(p perfmodel.Policy) {
		res.Evaluated++
		if e.Feasible(p) != nil {
			return
		}
		res.Feasible++
		cands = append(cands, candidate{p, e.Throughput(p).TokensPerSecond})
	}

	rdGrid := []float64{0}
	if in.Spec.Disk.Present() {
		rdGrid = o.rdGrid
	}
	for _, ag := range o.attnChoices {
		rcs := []float64{0}
		if ag {
			rcs = o.rcGrid
		}
		for _, fg := range o.ffnChoices {
			for _, rw := range o.rwGrid {
				if !fg && rw >= 1 {
					continue // F_g=0 with all weights on GPU is F_g=1
				}
				for _, rd := range rdGrid {
					if rw+rd > 1 {
						continue
					}
					for _, rc := range rcs {
						for _, mu := range o.muGrid {
							base := perfmodel.Policy{
								Mu: mu, GPUAttn: ag, GPUFFN: fg,
								WeightsGPURatio: rw, KVGPURatio: rc,
								WeightsDiskRatio: rd, KVBudget: o.kvBudget,
							}
							nMax := maxFeasibleN(e, base, o.maxN)
							if nMax < mu {
								continue
							}
							for _, n := range nCandidates(mu, nMax) {
								p := base
								p.N = n
								consider(p)
							}
						}
					}
				}
			}
		}
	}

	if res.Feasible == 0 {
		return res, ErrNoFeasiblePolicy
	}

	// Scores within 0.5% of the maximum are ties: among them prefer the
	// smallest batch (least CPU memory — the balance point of Eq. 11,
	// not past it), then the largest micro-batch (best kernel
	// efficiency), then CPU attention (frees link bandwidth for
	// weights).
	const tieRel = 5e-3
	maxScore := math.Inf(-1)
	for _, c := range cands {
		if c.score > maxScore {
			maxScore = c.score
		}
	}
	best := cands[0]
	chosen := false
	for _, c := range cands {
		if c.score < maxScore*(1-tieRel) {
			continue
		}
		if !chosen || tieBetter(c.p, best.p) {
			best, chosen = c, true
		}
	}
	res.Policy = best.p
	res.Report = e.Throughput(best.p)
	return res, nil
}

// tieBetter orders policies of equivalent score.
func tieBetter(p, q perfmodel.Policy) bool {
	if p.N != q.N {
		return p.N < q.N
	}
	if p.Mu != q.Mu {
		return p.Mu > q.Mu
	}
	if p.WeightsDiskRatio != q.WeightsDiskRatio {
		return p.WeightsDiskRatio < q.WeightsDiskRatio // prefer DRAM over disk
	}
	return !p.GPUAttn && q.GPUAttn
}

// maxFeasibleN binary-searches the largest feasible batch size for the
// partially specified policy. Memory use is monotone in N.
func maxFeasibleN(e *perfmodel.Estimator, base perfmodel.Policy, cap int) int {
	lo, hi := 0, cap
	p := base
	p.N = base.Mu
	if e.Feasible(p) != nil {
		return 0
	}
	lo = base.Mu
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		p.N = mid
		if p.N < p.Mu {
			p.N = p.Mu
		}
		if e.Feasible(p) == nil {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// nCandidates returns batch sizes to evaluate: powers-of-two multiples
// of μ plus the memory-maximal N.
func nCandidates(mu, nMax int) []int {
	var out []int
	for k := 1; mu*k <= nMax; k *= 2 {
		out = append(out, mu*k)
	}
	if len(out) == 0 || out[len(out)-1] != nMax {
		out = append(out, nMax)
	}
	sort.Ints(out)
	return out
}

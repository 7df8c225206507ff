package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// sameFloat reports whether a and b have the same bits, or are both NaN:
// exp32 states NaN in, NaN out, and which operand's payload an x86
// operation keeps when both are NaN depends on the operand order the
// compiler picks for a commutative one.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// expEdges are the arguments where exp32's lanes could part from its Go
// definition: both ends of the domain and the floats on either side of
// each, signed zeros, subnormals, infinities, NaN, huge finite values,
// and the floats around every rounding tie x*log2e = k ± 0.5 the domain
// reaches (some of them land on the tie exactly).
func expEdges() []float32 {
	inf := float32(math.Inf(1))
	e := []float32{
		expLo, expHi,
		math.Nextafter32(expLo, -inf), math.Nextafter32(expLo, inf),
		math.Nextafter32(expHi, -inf), math.Nextafter32(expHi, inf),
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 3e-39, -3e-39,
		inf, -inf, float32(math.NaN()), 1e30, -1e30, math.MaxFloat32, -math.MaxFloat32,
	}
	for k := -126; k <= 127; k++ {
		x := float32((float64(k) + 0.5) / float64(log2e))
		for i := 0; i < 4; i++ {
			x = math.Nextafter32(x, -inf)
		}
		for i := 0; i < 9; i++ {
			e = append(e, x)
			x = math.Nextafter32(x, inf)
		}
	}
	return e
}

// expInputs fills x with arguments: uniform in [-lim, lim], each salted
// with an edge value with probability 1/4 when edges is set.
func expInputs(rng *rand.Rand, x []float32, lim float32, edges []float32) {
	for i := range x {
		x[i] = (rng.Float32()*2 - 1) * lim
		if len(edges) > 0 && rng.Intn(4) == 0 {
			x[i] = edges[rng.Intn(len(edges))]
		}
	}
}

// TestExpVectorMatchesGo is exp32's lanes against its Go definition, bit
// for bit: the exp kernel alone on the edge arguments and ~10M others,
// then Softmax and SiLUMul with the vector kernels on and off over every
// length 0 to 70 (so every tail length meets every block count), on
// random inputs and edge-salted ones, SiLUMul also with dst aliased onto
// gate. A multiply and add fused into one FMA moves few results by an
// ulp, so the kernel check takes many arguments: it sees a fused pair in
// every step but the first Horner step (expP0*r + expP1), whose fused
// and separate roundings part on too few arguments to find; CI's grep
// for FMA instructions is what keeps that one out.
func TestExpVectorMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels (host without AVX2, or a -race build): the Go definition is the only one here")
	}
	edges := expEdges()
	rng := rand.New(rand.NewSource(32))
	// The edges, 2^21 arguments across the domain and a step past each
	// end, and runs of 2^14 consecutive floats on each side of every
	// rounding tie, where |r| is largest and a fused pair shows most.
	x := make([]float32, 1<<17)
	lanes := func(args []float32) {
		x = append(x[:0], args...)
		for len(x)%8 != 0 {
			x = append(x, 0)
		}
		var part [8]float64
		expSubAVX2(&x[0], len(x), 0, &part) // x - 0 is x
		for i, a := range args {
			if want := exp32(a); !sameFloat(x[i], want) {
				t.Fatalf("exp32(%g = %#08x): lanes %#08x, Go %#08x", a, math.Float32bits(a), math.Float32bits(x[i]), math.Float32bits(want))
			}
		}
	}
	args := append([]float32(nil), edges...)
	for len(args) < 1<<21 {
		args = append(args, expLo-1+(expHi-expLo+2)*rng.Float32())
	}
	lanes(args)
	inf := float32(math.Inf(1))
	for k := -126; k <= 127; k++ {
		tie := float32((float64(k) + 0.5) / float64(log2e))
		args, lo, hi := args[:0], tie, tie
		for i := 0; i < 1<<14; i++ {
			lo, hi = math.Nextafter32(lo, -inf), math.Nextafter32(hi, inf)
			args = append(args, lo, hi)
		}
		lanes(args)
	}

	was := SetVectorTile(false)
	defer SetVectorTile(was)
	// Softmax sees exp32(x - max), so its edge trials put a 0 in the row
	// and every other element at or below it: the arguments are the edge
	// values themselves. Positive arguments reach exp32 through SiLUMul.
	var nonPos []float32
	for _, e := range edges {
		if !(e > 0) {
			nonPos = append(nonPos, e)
		}
	}
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 12; trial++ {
			in := make([]float32, n)
			switch trial % 3 {
			case 0:
				expInputs(rng, in, 30, nil)
			case 1:
				expInputs(rng, in, 100, edges)
			default:
				expInputs(rng, in, 100, nonPos)
				for i, v := range in {
					in[i] = -float32(math.Abs(float64(v)))
				}
				if n > 0 {
					in[rng.Intn(n)] = 0
				}
			}
			up := make([]float32, n)
			upEdges := edges
			if trial%2 == 0 {
				upEdges = nil
			}
			expInputs(rng, up, 4, upEdges)

			run := func(vector bool) (soft, silu, aliased []float32) {
				SetVectorTile(vector)
				soft = append([]float32(nil), in...)
				Softmax(soft)
				silu = make([]float32, n)
				SiLUMul(silu, in, up)
				aliased = append([]float32(nil), in...)
				SiLUMul(aliased, aliased, up)
				return soft, silu, aliased
			}
			goS, goM, goA := run(false)
			vecS, vecM, vecA := run(true)
			for i := 0; i < n; i++ {
				for _, c := range []struct {
					name     string
					g, v, in float32
				}{{"Softmax", goS[i], vecS[i], in[i]}, {"SiLUMul", goM[i], vecM[i], in[i]}, {"aliased SiLUMul", goA[i], vecA[i], in[i]}} {
					if !sameFloat(c.g, c.v) {
						t.Fatalf("n %d trial %d: %s[%d] (input %g) = %#08x on the vector kernels, %#08x on Go",
							n, trial, c.name, i, c.in, math.Float32bits(c.v), math.Float32bits(c.g))
					}
				}
			}
		}
	}
}

// softmaxExp64 and siluMulExp64 are Softmax and SiLUMul as they were
// before exp32: math.Exp in float64, each exponential rounded to float32.
func softmaxExp64(x []float32) {
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - max))
		x[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range x {
		x[i] *= inv
	}
}

func siluMulExp64(dst, gate, up []float32) {
	for i, v := range gate {
		dst[i] = v / (1 + float32(math.Exp(float64(-v)))) * up[i]
	}
}

// ulps is |got - want| in units of the last place of want rounded to
// float32.
func ulps(got float32, want float64) float64 {
	_, e := math.Frexp(float64(float32(want)))
	return math.Abs(float64(got)-want) / math.Ldexp(1, e-24)
}

// TestExp32Drift bounds how far the restated exp moves results from the
// math.Exp formulas it replaced. Measured on an amd64 host (the test
// logs them), against the bounds it asserts:
//   - exp32 against math.Exp over [expLo, expHi]: 0.972 ulp worst on
//     2^20 evenly spaced and 2^20 random arguments; the bound is 2.
//   - Softmax: 3.2e-7 relative worst over rows of 1 to 512 logits in
//     [-30, 30] and [-100, 100]; the bound is 1e-6 relative plus 2^-125
//     absolute, for arguments in [-87.34, expLo), where exp32 gives 0 and
//     the old formula a value under e^-87.
//   - SiLUMul: 3.4e-7 relative worst for gate in [-80, 80]; the bound is
//     1e-6. Below -88 exp32(-gate) is clamped to exp32(88) where the old
//     formula overflowed to +Inf: both results are then under 1e-36
//     times |gate * up|.
func TestExp32Drift(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var worst float64
	const steps = 1 << 20
	for i := 0; i <= 2*steps; i++ {
		x := expLo + (expHi-expLo)*float32(i)/steps
		if i > steps {
			x = expLo + (expHi-expLo)*rng.Float32()
		}
		if x > expHi {
			continue
		}
		worst = math.Max(worst, ulps(exp32(x), math.Exp(float64(x))))
	}
	t.Logf("exp32: %.3f ulp worst against math.Exp", worst)
	if worst > 2 {
		t.Errorf("exp32 is %.3f ulp from math.Exp, want at most 2", worst)
	}

	worst = 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(512)
		lim := float32(30)
		if trial%2 == 1 {
			lim = 100
		}
		x := make([]float32, n)
		expInputs(rng, x, lim, nil)
		got, want := append([]float32(nil), x...), append([]float32(nil), x...)
		Softmax(got)
		softmaxExp64(want)
		for i := range got {
			d := math.Abs(float64(got[i]) - float64(want[i]))
			if d > 1e-6*float64(want[i])+0x1p-125 {
				t.Fatalf("Softmax[%d] of %d (logit %g): %g, old formula %g", i, n, x[i], got[i], want[i])
			}
			if want[i] >= 0x1p-100 {
				worst = math.Max(worst, d/float64(want[i]))
			}
		}
	}
	t.Logf("Softmax: %.3g relative worst against the old formula", worst)

	worst = 0
	gate, up, got, want := make([]float32, 4096), make([]float32, 4096), make([]float32, 4096), make([]float32, 4096)
	for trial := 0; trial < 64; trial++ {
		expInputs(rng, gate, float32(int(80)>>(trial%5)), nil)
		expInputs(rng, up, 4, nil)
		SiLUMul(got, gate, up)
		siluMulExp64(want, gate, up)
		for i := range got {
			if want[i] == 0 {
				if got[i] != 0 {
					t.Fatalf("SiLUMul(%g, %g) = %g, old formula 0", gate[i], up[i], got[i])
				}
				continue
			}
			r := math.Abs(float64(got[i])-float64(want[i])) / math.Abs(float64(want[i]))
			if r > 1e-6 {
				t.Fatalf("SiLUMul(%g, %g) = %g, old formula %g: %.3g relative", gate[i], up[i], got[i], want[i], r)
			}
			worst = math.Max(worst, r)
		}
	}
	t.Logf("SiLUMul: %.3g relative worst against the old formula", worst)
}

package tensor

import "math"

// exp32's domain and constants. Inside [expLo, expHi] every result
// 2^k * e^r is a normal float32, so adding k to the exponent bits of
// e^r scales it exactly. ln2Hi + ln2Lo is ln 2 split after nine
// significant bits (Cody–Waite), so k*ln2Hi is exact for every k the
// domain reaches; expP0..expP5 are Cephes expf's polynomial.
const (
	expLo float32 = -87
	expHi float32 = 88
	log2e float32 = 1.44269504088896341
	ln2Hi float32 = 0.693359375
	ln2Lo float32 = -2.12194440e-4
	expP0 float32 = 1.9875691500e-4
	expP1 float32 = 1.3981999507e-3
	expP2 float32 = 8.3334519073e-3
	expP3 float32 = 4.1665795894e-2
	expP4 float32 = 1.6666665459e-1
	expP5 float32 = 5.0000001201e-1
)

// exp32 is the package's exponential: Softmax and SiLUMul call it, and
// their AVX2 lanes (exp_amd64.s) compute this function bit for bit, one
// instruction per step below in the same order. Every multiply and add
// is rounded to float32 on its own — the conversions keep the compiler
// from fusing a pair into an FMA, at any GOAMD64 level.
//
//   - Domain: NaN gives NaN; x < expLo gives 0, -Inf included; x >
//     expHi is clamped to expHi, +Inf included.
//   - Reduction: k = x*log2e rounded to an integer, ties to even; then
//     r = x - k*ln2Hi, then r -= k*ln2Lo.
//   - Polynomial: p = expP0*r + expP1, then p = p*r + c for expP2 to
//     expP5 (Horner), then e^r = p*(r*r) + r + 1, left to right.
//   - Scaling: 2^k is k added to the exponent field of e^r's bits.
//
// It is within 2 ulp of math.Exp over [expLo, expHi] (TestExp32Drift).
func exp32(x float32) float32 {
	switch {
	case x != x:
		return x
	case x < expLo:
		return 0
	case x > expHi:
		x = expHi
	}
	k := float32(math.RoundToEven(float64(float32(x * log2e))))
	r := x - float32(k*ln2Hi)
	r -= float32(k * ln2Lo)
	p := float32(expP0*r) + expP1
	p = float32(p*r) + expP2
	p = float32(p*r) + expP3
	p = float32(p*r) + expP4
	p = float32(p*r) + expP5
	p = float32(p*float32(r*r)) + r
	p += 1
	return math.Float32frombits(math.Float32bits(p) + uint32(int32(k))<<23)
}

// expVecLen is how many leading elements of an n-element slice the AVX2
// lanes take — whole blocks of eight, none without AVX2. exp32 runs the
// rest, so every element has the same bits either way.
func expVecLen(n int) int {
	if !useAVX2 {
		return 0
	}
	return n &^ 7
}

// Softmax computes an in-place numerically stable softmax: each element
// becomes exp32(x - max), then is multiplied by float32(1/sum). The max
// is the first element replaced by any strictly greater one. The sum is
// float64 in eight parts — part j adds the exponentials at i ≡ j (mod 8)
// in ascending i — added pairwise, ((0+1)+(2+3))+((4+5)+(6+7)), so
// eight AVX2 lanes hold the parts. Where the host has AVX2 the lanes
// take whole blocks of eight and this loop the rest.
func Softmax(x []float32) {
	if len(x) == 0 {
		return
	}
	v := expVecLen(len(x))
	max := x[0]
	if v > 0 {
		max = maxAVX2(&x[0], v, max)
	}
	for _, e := range x[v:] {
		if e > max {
			max = e
		}
	}
	var part [8]float64
	if v > 0 {
		expSubAVX2(&x[0], v, max, &part)
	}
	for i := v; i < len(x); i++ {
		x[i] = exp32(x[i] - max)
		part[i%8] += float64(x[i])
	}
	sum := ((part[0] + part[1]) + (part[2] + part[3])) + ((part[4] + part[5]) + (part[6] + part[7]))
	inv := float32(1 / sum)
	if v > 0 {
		scaleAVX2(&x[0], v, inv)
	}
	for i := v; i < len(x); i++ {
		x[i] *= inv
	}
}

// SiLU computes x * sigmoid(x) elementwise in place, as x / (1 +
// exp32(-x)).
func SiLU(x []float32) {
	for i, v := range x {
		x[i] = v / (1 + exp32(-v))
	}
}

// SiLUMul computes dst = silu(gate) * up elementwise, fusing the MoE
// FFN activation into one pass. dst may alias gate or up. Bit-identical
// to SiLU(gate) followed by an elementwise multiply, on the AVX2 lanes
// too: the division and the multiply are single IEEE operations.
func SiLUMul(dst, gate, up []float32) {
	dst, up = dst[:len(gate)], up[:len(gate)] // the kernel trusts these lengths
	v := expVecLen(len(gate))
	if v > 0 {
		siluMulAVX2(&dst[0], &gate[0], &up[0], v)
	}
	for i := v; i < len(gate); i++ {
		g := gate[i]
		dst[i] = g / (1 + exp32(-g)) * up[i]
	}
}

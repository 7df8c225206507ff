package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float32) bool {
	return float32(math.Abs(float64(a-b))) <= tol
}

func TestMatMulTKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	bT := FromSlice(2, 3, []float32{7, 9, 11, 8, 10, 12})
	dst := NewMat(2, 2)
	MatMulT(dst, a, bT)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("matmulT[%d] = %v, want %v", i, dst.Data[i], v)
		}
	}
}

func TestMatMulTShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on shape mismatch")
		}
	}()
	MatMulT(NewMat(2, 2), NewMat(2, 3), NewMat(2, 4))
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float32, len(raw))
		for i, v := range raw {
			// Clamp to a sane range; quick generates extreme values.
			x[i] = float32(math.Mod(float64(v), 20))
		}
		Softmax(x)
		var sum float64
		for _, v := range x {
			if v < 0 || math.IsNaN(float64(v)) {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	x := []float32{1000, 1000, 1000}
	Softmax(x)
	for _, v := range x {
		if !almostEqual(v, 1.0/3, 1e-5) {
			t.Fatalf("softmax of equal large values = %v, want 1/3", v)
		}
	}
}

func TestRMSNormUnitVariance(t *testing.T) {
	x := []float32{3, -3, 3, -3}
	w := []float32{1, 1, 1, 1}
	out := make([]float32, 4)
	RMSNorm(out, x, w, 0)
	for _, v := range out {
		if !almostEqual(float32(math.Abs(float64(v))), 1, 1e-5) {
			t.Fatalf("rmsnorm = %v, want +-1", out)
		}
	}
}

func TestSiLU(t *testing.T) {
	x := []float32{0}
	SiLU(x)
	if x[0] != 0 {
		t.Fatalf("silu(0) = %v, want 0", x[0])
	}
	x = []float32{10}
	SiLU(x)
	if !almostEqual(x[0], 10, 1e-3) {
		t.Fatalf("silu(10) = %v, want ~10", x[0])
	}
}

func TestTopK(t *testing.T) {
	got := TopKInto(make([]int, 0, 2), []float32{0.1, 0.9, 0.5, 0.9}, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("topk = %v, want [1 3] (ties break low-index first)", got)
	}
	if len(TopKInto(make([]int, 0, 5), []float32{1, 2}, 5)) != 2 {
		t.Fatal("topk must clamp k to len")
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float32{1, 3, 3, 2}); got != 1 {
		t.Fatalf("argmax = %d, want 1 (first max)", got)
	}
}

func TestRoPEPreservesNorm(t *testing.T) {
	f := func(seed int64, pos uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float32, 16)
		for i := range x {
			x[i] = rng.Float32() - 0.5
		}
		before := Dot(x, x)
		RoPE(x, 8, int(pos), 10000)
		after := Dot(x, x)
		return almostEqual(before, after, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRoPEPositionZeroIsIdentity(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	y := append([]float32(nil), x...)
	RoPE(y, 4, 0, 10000)
	for i := range x {
		if !almostEqual(x[i], y[i], 1e-6) {
			t.Fatalf("RoPE at pos 0 changed input: %v -> %v", x, y)
		}
	}
}

func TestRoPERelativeDotProduct(t *testing.T) {
	// The defining RoPE property: <R_m q, R_n k> depends only on n-m.
	q := []float32{0.3, -0.2, 0.8, 0.1}
	k := []float32{-0.5, 0.4, 0.2, 0.9}
	dot := func(mq, nk int) float32 {
		qq := append([]float32(nil), q...)
		kk := append([]float32(nil), k...)
		RoPE(qq, 4, mq, 10000)
		RoPE(kk, 4, nk, 10000)
		return Dot(qq, kk)
	}
	if !almostEqual(dot(3, 7), dot(10, 14), 1e-4) {
		t.Fatalf("RoPE dot not relative: %v vs %v", dot(3, 7), dot(10, 14))
	}
}

func TestAttendOneUniform(t *testing.T) {
	// With identical keys, attention weights are uniform and the output
	// is the mean of values.
	const nq, nkv, dh, ctx = 2, 1, 2, 3
	q := []float32{1, 0, 0, 1}
	keys := NewMat(ctx, nkv*dh)
	values := NewMat(ctx, nkv*dh)
	for t0 := 0; t0 < ctx; t0++ {
		keys.Set(t0, 0, 1)
		values.Set(t0, 0, float32(t0))
		values.Set(t0, 1, 1)
	}
	out := make([]float32, nq*dh)
	AttendMany([]AttnItem{{Out: out, Q: q, KeyBlocks: []Mat{keys}, ValueBlocks: []Mat{values}}}, nq, nkv, dh)
	for h := 0; h < nq; h++ {
		if !almostEqual(out[h*dh], 1, 1e-5) { // mean of 0,1,2
			t.Fatalf("head %d mean = %v, want 1", h, out[h*dh])
		}
		if !almostEqual(out[h*dh+1], 1, 1e-5) {
			t.Fatalf("head %d second dim = %v, want 1", h, out[h*dh+1])
		}
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FromSlice(2, 3, make([]float32, 5))
}

func TestAxpyAndAdd(t *testing.T) {
	y := []float32{1, 2}
	Axpy(2, []float32{3, 4}, y)
	if y[0] != 7 || y[1] != 10 {
		t.Fatalf("axpy = %v", y)
	}
	dst := make([]float32, 2)
	Add(dst, []float32{1, 2}, []float32{3, 4})
	if dst[0] != 4 || dst[1] != 6 {
		t.Fatalf("add = %v", dst)
	}
}

package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"moelightning/internal/calib"
	"moelightning/internal/hardware"
	"moelightning/internal/model"
	"moelightning/internal/perfmodel"
	"moelightning/internal/schedule"
	"moelightning/internal/workload"
)

// TestAnalyticFiguresDigest pins the rendered output of the fast
// analytic experiments, with moebench's arguments, as
// TestReferenceTokensDigest pins the engine's tokens. A refactor of the
// cost code must leave every digest as it is; a deliberate change to a
// price replaces the digests it moves. Two entries no figure renders
// pin the rest of the cost code: calib.PredictServe on the analytic
// curve at every standing scenario (the Paged, KVPagedInt8 and
// ExpertHitRatio branches), and one F_g = false policy through both
// DecodeLayer (Eq. 12) and schedule.PlanFor (the simulator's prices),
// which price its FFN differently. Those print their seconds to twelve
// significant digits: a changed formula moves them, a changed order of
// one rounding does not.
func TestAnalyticFiguresDigest(t *testing.T) {
	for _, c := range []struct {
		name   string
		render func() (string, error)
		digest uint64
	}{
		{"fig6", func() (string, error) {
			rs, err := Figure6("S1", 4, 4)
			return RenderFigure6(rs), err
		}, 0x30e8f694484b7a64},
		{"fig8", func() (string, error) {
			rows, err := Figure8([]int{32, 64, 128, 256})
			return RenderFigure8(rows), err
		}, 0x59b077be5418c053},
		{"fig9", func() (string, error) {
			cells, err := Figure9([]int{32, 64, 128, 256}, []int{128, 256, 512, 1024, 2048})
			return RenderFigure9(cells), err
		}, 0xb1f85a0b12fc692d},
		{"tab4", func() (string, error) {
			rows, err := Table4()
			return RenderTable4(rows), err
		}, 0xdf5817f235de0cb0},
		{"tab5", func() (string, error) {
			rows, err := Table5()
			if err != nil {
				return "", err
			}
			opt, err := Table5Optimized()
			return RenderTable5(rows) + RenderTable5(opt), err
		}, 0x26ba103b43cdcbb6},
		{"disk", func() (string, error) {
			return RenderDiskOffload(DiskOffload([]float64{32, 48, 64, 96, 128, 192})), nil
		}, 0x83cf58db061860f4},
		{"sparsity", func() (string, error) {
			rows, err := KVSparsity([]float64{1, 0.5, 0.25, 0.125})
			return RenderKVSparsity(rows), err
		}, 0x4a4d2f6285f06e48},
		{"latency", func() (string, error) {
			return RenderLatencyRegime(LatencyRegime([]int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})), nil
		}, 0x92757fdd6028fab8},
		{"quant", func() (string, error) {
			return RenderQuantization(Quantization()), nil
		}, 0xde452f36eada3b13},
		{"predict-serve", renderPredictServe, 0x8a5e98a48d2f584e},
		{"ffn-on-cpu", renderCPUFFNPolicy, 0xd550e34280959981},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := c.render()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write([]byte(out))
			if got := h.Sum64(); got != c.digest {
				t.Errorf("digest %#x, want %#x; output:\n%s", got, c.digest, out)
			}
		})
	}
}

// renderPredictServe prints the analytic serve prediction of every
// standing calibration scenario on a fixed two-core host.
func renderPredictServe() (string, error) {
	var b strings.Builder
	for _, sc := range calib.StandingScenarios() {
		r, err := calib.PredictServe(model.Tiny(), hardware.Host(2), sc, nil, 0.75)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s %v %.12g %.12g %.12g %d %s\n", sc.Name, r.Policy,
			r.TokensPerSecond, r.PrefillSeconds, r.DecodeSeconds, r.GeneratedTokens, r.Bottleneck)
	}
	return b.String(), nil
}

// renderCPUFFNPolicy prints one F_g = false policy's Eq. 12 lanes and
// its simulator durations on S1.
func renderCPUFFNPolicy() (string, error) {
	in := Settings()["S1"].Input(workload.MTBench(128))
	e, err := perfmodel.New(in)
	if err != nil {
		return "", err
	}
	p := perfmodel.Policy{N: 512, Mu: 128, GPUFFN: false, WeightsGPURatio: 0.3}
	ctx := in.MidContext()
	return fmt.Sprintf("%.12g\n%.12g\n", e.DecodeLayer(p, ctx), schedule.PlanFor(e, p, ctx).D), nil
}

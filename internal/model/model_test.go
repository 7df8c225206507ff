package model

import (
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range Presets() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMixtral8x7BParameterCount(t *testing.T) {
	// The public model card: ~46.7B total parameters.
	got := Mixtral8x7B().TotalParams()
	if got < 46_000_000_000 || got > 47_500_000_000 {
		t.Errorf("Mixtral 8x7B params = %d, want ~46.7B", got)
	}
}

func TestMixtral8x22BParameterCount(t *testing.T) {
	got := Mixtral8x22B().TotalParams()
	if got < 139_000_000_000 || got > 142_000_000_000 {
		t.Errorf("Mixtral 8x22B params = %d, want ~141B", got)
	}
}

func TestDBRXParameterCount(t *testing.T) {
	got := DBRX().TotalParams()
	if got < 128_000_000_000 || got > 136_000_000_000 {
		t.Errorf("DBRX params = %d, want ~132B", got)
	}
}

func TestExpertFFNDominatesMoEWeights(t *testing.T) {
	// §1: Mixtral 8x22B expert FFN weights need >256 GB (decimal) in f16.
	cfg := Mixtral8x22B()
	ffnBytes := cfg.FFNWeightBytes() * int64(cfg.Layers)
	if ffnBytes < 256e9 {
		t.Errorf("8x22B expert FFN bytes = %.1f GB, want > 256 GB", float64(ffnBytes)/1e9)
	}
}

func TestSharedExpertSplitCoversLayer(t *testing.T) {
	// The paged layout splits every layer into a shared prefix plus
	// Experts pageable FFN blocks; nothing may be dropped or counted
	// twice, in params or bytes, for any preset.
	for name, cfg := range Presets() {
		if got := cfg.SharedWeightParams() + int64(cfg.Experts)*cfg.ExpertParams(); got != cfg.LayerWeightParams() {
			t.Errorf("%s: shared + experts = %d params, layer = %d", name, got, cfg.LayerWeightParams())
		}
		if got := cfg.SharedWeightBytes() + int64(cfg.Experts)*cfg.ExpertBlockBytes(); got != cfg.LayerWeightBytes() {
			t.Errorf("%s: shared + experts = %d bytes, layer = %d", name, got, cfg.LayerWeightBytes())
		}
	}
}

func TestKVBytesPerToken(t *testing.T) {
	// Mixtral 8x7B: 2 (K,V) * 8 heads * 128 dim * 2 bytes = 4 KiB a layer.
	if got := Mixtral8x7B().KVBytesPerTokenLayer(); got != 4096 {
		t.Errorf("KV bytes/token/layer = %v, want 4096", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := Mixtral8x7B()
	cases := map[string]func(*Config){
		"zero layers":        func(c *Config) { c.Layers = 0 },
		"kv not divisor":     func(c *Config) { c.KVHeads = 7 },
		"topk over experts":  func(c *Config) { c.TopK = 9 },
		"head dim mismatch":  func(c *Config) { c.HeadDim = 64 },
		"zero intermediate":  func(c *Config) { c.Intermediate = 0 },
		"non-positive heads": func(c *Config) { c.QHeads = 0 },
	}
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
}

func TestDTypeBytes(t *testing.T) {
	if F32.Bytes() != 4 || F16.Bytes() != 2 || Int8.Bytes() != 1 || Int4.Bytes() != 0.5 {
		t.Error("dtype byte sizes wrong")
	}
	if F16.String() != "f16" || Int4.String() != "int4" {
		t.Error("dtype names wrong")
	}
}

func TestOpCostIntensityProperties(t *testing.T) {
	f := func(flops, wb, ab uint32) bool {
		c := OpCost{FLOPs: float64(flops), WeightBytes: float64(wb), ActBytes: float64(ab)}
		i := c.Intensity()
		if c.Bytes() == 0 {
			return i == 0
		}
		return i >= 0 && i == c.FLOPs/c.Bytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttnIntensityIndependentOfBatch(t *testing.T) {
	// §3.3: attention operational intensity does not change with batch
	// size (flops and bytes both scale linearly).
	cfg := Mixtral8x7B()
	i1 := cfg.AttnCost(1, 512).Intensity()
	i64 := cfg.AttnCost(64, 512).Intensity()
	if diff := i1 - i64; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("attention intensity varies with batch: %v vs %v", i1, i64)
	}
}

func TestFFNIntensityGrowsWithMicroBatch(t *testing.T) {
	// §3.3: FFN operational intensity increases with micro-batch size
	// (more compute per weight access).
	cfg := Mixtral8x7B()
	prev := 0.0
	for _, mu := range []int{8, 32, 128, 512} {
		c := cfg.PostAttnCost(mu, cfg.Experts)
		i := c.Intensity()
		if i <= prev {
			t.Fatalf("FFN intensity not increasing at mu=%d: %v <= %v", mu, i, prev)
		}
		prev = i
	}
}

func TestExpertsTouched(t *testing.T) {
	cfg := Mixtral8x7B() // 8 experts, top-2
	if got := cfg.ExpertsTouched(1); got != 2 {
		t.Errorf("one token touches %d experts, want 2", got)
	}
	if got := cfg.ExpertsTouched(64); got != 8 {
		t.Errorf("64 tokens touch %d experts, want all 8", got)
	}
	// Monotone non-decreasing.
	prev := 0
	for n := 1; n <= 64; n *= 2 {
		got := cfg.ExpertsTouched(n)
		if got < prev {
			t.Fatalf("ExpertsTouched not monotone at n=%d: %d < %d", n, got, prev)
		}
		prev = got
	}
}

func TestPrefillCostScalesWithTokens(t *testing.T) {
	cfg := Mixtral8x7B()
	c1 := cfg.PrefillCost(1000, 100)
	c2 := cfg.PrefillCost(2000, 100)
	if c2.FLOPs <= c1.FLOPs {
		t.Error("prefill FLOPs must grow with token count")
	}
}

func TestLayerWeightBytesMatchesMixtralCard(t *testing.T) {
	// One Mixtral 8x7B layer in f16 is ~2.7 GiB (dominated by 8 experts
	// x 3 x 4096 x 14336 x 2 bytes).
	got := float64(Mixtral8x7B().LayerWeightBytes()) / (1 << 30)
	if got < 2.6 || got > 2.8 {
		t.Errorf("layer weight bytes = %.2f GiB, want ~2.7", got)
	}
}

func TestQKVAndHiddenBytes(t *testing.T) {
	cfg := Mixtral8x7B()
	if got := cfg.HiddenBytes(10); got != int64(10*4096*2) {
		t.Errorf("hidden bytes = %d", got)
	}
	want := int64(10 * (4096 + 2*1024) * 2)
	if got := cfg.QKVBytes(10); got != want {
		t.Errorf("qkv bytes = %d, want %d", got, want)
	}
}

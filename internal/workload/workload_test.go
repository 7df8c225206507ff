package workload

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

func TestGenerateMatchesTable3Stats(t *testing.T) {
	for _, tc := range []struct {
		cfg     Config
		avgTol  int
		wantMax int
	}{
		{MTBench(128), 8, 418},
		{SyntheticReasoning(), 5, 256},
		{Summarization(), 34, 1984},
	} {
		reqs := tc.cfg.Generate(1)
		if len(reqs) != tc.cfg.NumRequests {
			t.Fatalf("%s: %d requests, want %d", tc.cfg.Name, len(reqs), tc.cfg.NumRequests)
		}
		total, maxPrompt, minPrompt := 0, 0, reqs[0].PromptLen
		for _, r := range reqs {
			total += r.PromptLen
			maxPrompt = max(maxPrompt, r.PromptLen)
			minPrompt = min(minPrompt, r.PromptLen)
		}
		avg := total / len(reqs)
		if diff := avg - tc.cfg.AvgPrompt; diff > tc.avgTol || diff < -tc.avgTol {
			t.Errorf("%s: avg prompt %d, want %d +- %d", tc.cfg.Name, avg, tc.cfg.AvgPrompt, tc.avgTol)
		}
		if maxPrompt > tc.wantMax {
			t.Errorf("%s: max prompt %d exceeds s_max %d", tc.cfg.Name, maxPrompt, tc.wantMax)
		}
		if minPrompt < tc.cfg.MinPrompt {
			t.Errorf("%s: min prompt %d below floor %d", tc.cfg.Name, minPrompt, tc.cfg.MinPrompt)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MTBench(64).Generate(7)
	b := MTBench(64).Generate(7)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across same-seed runs", i)
		}
	}
	c := MTBench(64).Generate(8)
	same := true
	for i := range a {
		if a[i].PromptLen != c[i].PromptLen {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical request sets")
	}
}

func TestWithGenLenAndRequests(t *testing.T) {
	cfg := MTBench(32)
	if cfg.WithGenLen(256).GenLen != 256 {
		t.Error("WithGenLen")
	}
	if cfg.WithRequests(10).NumRequests != 10 {
		t.Error("WithRequests")
	}
	if cfg.GenLen != 32 {
		t.Error("With* must not mutate the receiver")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := map[string]func(*Config){
		"zero avg":        func(c *Config) { c.AvgPrompt = 0 },
		"max below avg":   func(c *Config) { c.MaxPrompt = c.AvgPrompt - 1 },
		"min above avg":   func(c *Config) { c.MinPrompt = c.AvgPrompt + 1 },
		"negative min":    func(c *Config) { c.MinPrompt = -1 },
		"zero requests":   func(c *Config) { c.NumRequests = 0 },
		"zero generation": func(c *Config) { c.GenLen = 0 },
	}
	for name, mutate := range cases {
		cfg := MTBench(64)
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
}

func TestGenerateBoundsProperty(t *testing.T) {
	cfg := MTBench(64)
	f := func(seed int64) bool {
		for _, r := range cfg.WithRequests(200).Generate(seed) {
			if r.PromptLen < cfg.MinPrompt || r.PromptLen > cfg.MaxPrompt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

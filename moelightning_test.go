package moelightning

import (
	"strings"
	"testing"
)

func s1Config() Config {
	return Config{
		Model:    Mixtral8x7B(),
		Hardware: SettingS1(),
		Workload: MTBench(128),
		Padded:   true,
	}
}

func TestNewValidates(t *testing.T) {
	cfg := s1Config()
	cfg.Model.Layers = 0
	if _, err := New(cfg); err == nil {
		t.Error("want validation error")
	}
	if _, err := New(s1Config()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestPlanSimulateFlow(t *testing.T) {
	sys, err := New(s1Config())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Policy.N <= 0 || plan.EstimatedTokensPerSecond <= 0 {
		t.Fatalf("bad plan: %+v", plan)
	}
	if err := sys.Feasible(plan.Policy); err != nil {
		t.Fatalf("planned policy infeasible: %v", err)
	}
	res, err := sys.Simulate(plan.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.TokensPerSecond <= 0 || res.GeneratedTokens <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	// Simulation includes schedule overheads the estimate ignores.
	if res.TokensPerSecond > plan.EstimatedTokensPerSecond*1.1 {
		t.Errorf("simulated (%v) should not exceed estimated (%v) by >10%%",
			res.TokensPerSecond, plan.EstimatedTokensPerSecond)
	}
	if len(res.Utilization) == 0 {
		t.Error("missing utilization")
	}
}

func TestEstimateRejectsInfeasible(t *testing.T) {
	sys, err := New(s1Config())
	if err != nil {
		t.Fatal(err)
	}
	bad := Policy{N: 64, Mu: 64, GPUFFN: true, WeightsGPURatio: 1}
	if _, err := sys.Estimate(bad); err == nil {
		t.Error("whole model on a T4 accepted")
	}
	if _, err := sys.Simulate(bad); err == nil {
		t.Error("simulate accepted infeasible policy")
	}
}

func TestDecodeTrace(t *testing.T) {
	sys, err := New(s1Config())
	if err != nil {
		t.Fatal(err)
	}
	p := Policy{N: 128, Mu: 32, GPUFFN: true}
	out, err := sys.DecodeTrace(p, 80)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "GPU") || !strings.Contains(out, "makespan") {
		t.Errorf("trace missing lanes: %s", out)
	}
}

func TestRoofline(t *testing.T) {
	sys, err := New(s1Config())
	if err != nil {
		t.Fatal(err)
	}
	h := sys.Roofline()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPresetsExposed(t *testing.T) {
	for _, m := range []ModelConfig{Mixtral8x7B(), Mixtral8x22B(), DBRX(), TinyMoE()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	for _, h := range []HardwareSpec{SettingS1(), SettingS2(), SettingS6(), SettingS7(), SettingS8(), SettingS9()} {
		if err := h.Validate(); err != nil {
			t.Errorf("%s: %v", h.Name, err)
		}
	}
	for _, w := range []WorkloadConfig{MTBench(64), SyntheticReasoning(), SummarizationHELM()} {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestRunFunctional(t *testing.T) {
	reqs := []Request{
		{ID: 1, PromptLen: 5, GenLen: 4},
		{ID: 2, PromptLen: 8, GenLen: 4},
		{ID: 3, PromptLen: 3, GenLen: 4},
		{ID: 4, PromptLen: 6, GenLen: 4},
		{ID: 5, PromptLen: 7, GenLen: 4},
	}
	res, err := RunFunctional(TinyMoE(), reqs, FunctionalOptions{
		ServerConfig: ServerConfig{Seed: 9, GenLen: 4}, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("verification did not run")
	}
	if len(res.Outputs) != len(reqs) {
		t.Fatalf("served %d of %d", len(res.Outputs), len(reqs))
	}
	for id, toks := range res.Outputs {
		if len(toks) != 4 {
			t.Errorf("request %d generated %d tokens", id, len(toks))
		}
	}
	if res.Waves < 2 || res.PagesMoved == 0 || res.HtoDBytes == 0 {
		t.Errorf("accounting: %+v", res)
	}
	if res.Deferred == 0 {
		t.Error("5 requests over 2x2 waves must defer at least one")
	}
}

// TestRunFunctionalRunsTheWaveLength: RunFunctional is a closed batch,
// so requests asking for fewer tokens than opts.GenLen still generate
// exactly opts.GenLen, verified against the reference, and the
// caller's requests keep their own GenLen.
func TestRunFunctionalRunsTheWaveLength(t *testing.T) {
	const genLen = 6
	reqs := []Request{
		{ID: 1, PromptLen: 5, GenLen: 2},
		{ID: 2, PromptLen: 8, GenLen: 1},
		{ID: 3, PromptLen: 3},
	}
	res, err := RunFunctional(TinyMoE(), reqs, FunctionalOptions{
		ServerConfig: ServerConfig{Seed: 9, GenLen: genLen}, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("verification did not run")
	}
	for _, r := range reqs {
		if got := len(res.Outputs[r.ID]); got != genLen {
			t.Errorf("request %d generated %d tokens, want %d", r.ID, got, genLen)
		}
	}
	if reqs[0].GenLen != 2 || reqs[1].GenLen != 1 {
		t.Errorf("RunFunctional rewrote the caller's requests: %+v", reqs)
	}
}

// TestRunFunctionalInt8KV serves the same queue over the group-
// quantized cache: Verify holds because the reference reads an Int8
// cache too (pipeline-vs-reference bit-identity survives the codec),
// and the DtoH byte count shrinks versus the f32 run — the prefill KV
// offload ships int8 codes plus scales instead of raw floats.
func TestRunFunctionalInt8KV(t *testing.T) {
	reqs := []Request{
		{ID: 1, PromptLen: 5, GenLen: 4},
		{ID: 2, PromptLen: 8, GenLen: 4},
		{ID: 3, PromptLen: 3, GenLen: 4},
		{ID: 4, PromptLen: 6, GenLen: 4},
	}
	f32, err := RunFunctional(TinyMoE(), reqs, FunctionalOptions{ServerConfig: ServerConfig{Seed: 9, GenLen: 4}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFunctional(TinyMoE(), reqs, FunctionalOptions{
		ServerConfig: ServerConfig{Seed: 9, GenLen: 4, KVDtype: KVInt8}, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("quantized verification did not run")
	}
	for id, toks := range res.Outputs {
		if len(toks) != 4 {
			t.Errorf("request %d generated %d tokens", id, len(toks))
		}
	}
	if res.DtoHBytes >= f32.DtoHBytes {
		t.Errorf("int8 KV moved %d DtoH bytes, f32 moved %d — offload did not shrink",
			res.DtoHBytes, f32.DtoHBytes)
	}
}

func TestRunFunctionalRejectsBigModels(t *testing.T) {
	if _, err := RunFunctional(Mixtral8x7B(), []Request{{ID: 1, PromptLen: 4, GenLen: 2}}, FunctionalOptions{}); err == nil {
		t.Fatal("full-size model accepted by the functional engine")
	}
	if _, err := RunFunctional(TinyMoE(), nil, FunctionalOptions{}); err == nil {
		t.Fatal("empty queue accepted")
	}
}

// TestRunFunctionalFailsOnFailedRequest: a request that fails in its
// wave fails the run, rather than leaving a hole in Outputs.
func TestRunFunctionalFailsOnFailedRequest(t *testing.T) {
	reqs := []Request{{ID: 1, PromptLen: 5}, {ID: 2, PromptLen: 8}}
	_, err := RunFunctional(TinyMoE(), reqs, FunctionalOptions{ServerConfig: ServerConfig{
		Seed: 9, GenLen: 4, Faults: NewFaultInjector(FaultsConfig{KVAllocFailAt: []int{1}}),
	}})
	if err == nil {
		t.Fatal("a failed request did not fail the run")
	}
}

// TestRunFunctionalSharedPrefix: a queue declaring a common prefix
// verifies against the reference, maps the shared prefix instead of
// prefilling it, and every prompt token is either prefilled or mapped.
func TestRunFunctionalSharedPrefix(t *testing.T) {
	reqs := make([]Request, 5)
	prompt := 0
	for i := range reqs {
		reqs[i] = Request{ID: i + 1, PromptLen: 36 + i, GenLen: 4, PrefixID: 11, PrefixLen: 32}
		prompt += reqs[i].PromptLen
	}
	on, err := RunFunctional(TinyMoE(), reqs, FunctionalOptions{
		ServerConfig: ServerConfig{Seed: 9, GenLen: 4}, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !on.Verified {
		t.Fatal("verification did not run")
	}
	if on.PrefixHitTokens < 32*2 {
		t.Errorf("mapped only %d prefix tokens", on.PrefixHitTokens)
	}
	total := on.PrefillTokens + on.PrefixHitTokens
	if total != prompt {
		t.Errorf("prefilled %d + mapped %d != %d prompt tokens", on.PrefillTokens, on.PrefixHitTokens, prompt)
	}
	if want := float64(on.PrefixHitTokens) / float64(total); on.PrefixHitRatio != want {
		t.Errorf("PrefixHitRatio = %v, want %v", on.PrefixHitRatio, want)
	}
}

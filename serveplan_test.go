package moelightning

import (
	"context"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"moelightning/internal/hardware"
	"moelightning/internal/perfmodel"
	"moelightning/internal/policy"
	"moelightning/internal/workload"
)

// tinyServeWorkload is a wave-sized closed queue on the tiny model.
func tinyServeWorkload() WorkloadConfig {
	return workload.Config{
		Name:        "tiny-serve",
		AvgPrompt:   12,
		MaxPrompt:   12,
		GenLen:      8,
		NumRequests: 8,
	}
}

// TestOptimizedConfigConstructsServer closes the search-to-serve loop:
// the optimizer picks a policy for the tiny model on this host, the
// policy maps onto a ServerConfig, and that config must construct a
// real Server and drain a batch.
func TestOptimizedConfigConstructsServer(t *testing.T) {
	w := tinyServeWorkload()
	in := perfmodel.Input{
		Model:    TinyMoE(),
		Spec:     hardware.Host(runtime.NumCPU()),
		Workload: w,
		KVCodec:  perfmodel.KVPagedF32,
		Paged:    true,
	}
	// Constrain the search to shapes the functional engine executes:
	// CPU attention over the paged cache, streamed/paged weights, waves
	// the tiny arenas can hold.
	res, err := policy.Optimize(in,
		policy.WithGPUAttn(false),
		policy.WithMuGrid(1, 2, 4, 8),
		policy.WithMaxN(8),
		policy.WithRwGrid(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfigForPolicy(TinyMoE(), res.Policy, w, KVFloat32)
	if cfg.MicroBatchSize != res.Policy.Mu || cfg.NumMicroBatches != res.Policy.MicroBatches() {
		t.Fatalf("config %+v does not reflect policy %v", cfg, res.Policy)
	}

	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("emitted config does not construct a server: %v", err)
	}
	defer srv.Close()
	reqs := make([]Request, w.NumRequests)
	for i := range reqs {
		reqs[i] = Request{ID: i + 1, PromptLen: w.AvgPrompt, GenLen: w.GenLen}
	}
	handles, err := srv.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range handles {
		tokens, herr := h.Wait()
		if herr != nil {
			t.Fatalf("request %d failed under emitted config: %v", h.ID(), herr)
		}
		if len(tokens) != w.GenLen {
			t.Fatalf("request %d generated %d tokens, want %d", h.ID(), len(tokens), w.GenLen)
		}
	}
}

func TestFormatServerConfigIsCopyPasteable(t *testing.T) {
	cfg := ServerConfigForPolicy(TinyMoE(), Policy{N: 8, Mu: 4, GPUFFN: true}, tinyServeWorkload(), KVInt8)
	s := FormatServerConfig(cfg)
	for _, want := range []string{
		"MicroBatchSize: 4", "NumMicroBatches: 2", "GenLen: 8",
		"moelightning.KVInt8",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted config missing %q:\n%s", want, s)
		}
	}
	// Every key of the literal is a ServerConfig field, so the printed
	// config compiles after a field is removed or renamed.
	public := reflect.TypeOf(ServerConfig{})
	keys := regexp.MustCompile(`(\w+):`).FindAllStringSubmatch(s, -1)
	if len(keys) == 0 {
		t.Fatalf("no fields in the formatted config:\n%s", s)
	}
	for _, k := range keys {
		if _, ok := public.FieldByName(k[1]); !ok {
			t.Errorf("formatted config names %s, which is not a ServerConfig field:\n%s", k[1], s)
		}
	}
}

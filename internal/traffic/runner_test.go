package traffic

import (
	"testing"

	"moelightning/internal/engine"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

func newTestServer(t *testing.T, sloAware bool) (*engine.Server, model.Config) {
	t.Helper()
	cfg := model.Tiny()
	host, err := engine.NewHost(cfg, 11, 4, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := engine.NewServer(host, engine.ServeConfig{
		Config:          engine.Config{MicroBatch: 2, MaxContext: 64},
		AdmissionPolicy: engine.AdmissionPolicy{SLOAware: sloAware},
		NumMicroBatches: 2, GenLen: 10, CacheTokens: 128,
		Vocab: cfg.VocabSize, HonorRequestGenLen: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, cfg
}

// TestRunBurstyAgainstLiveServer plays a seeded bursty trace open-loop
// against a real tiny server: requests are submitted concurrently from
// per-request goroutines at their arrival instants (the -race CI run
// exercises concurrent Submit), and the report must account for every
// request with measured latencies.
func TestRunBurstyAgainstLiveServer(t *testing.T) {
	srv, _ := newTestServer(t, true)
	defer srv.Close()

	tr, err := BurstyMix(60, 24).Generate(2024)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(func(req workload.Request, slo SLO) (*engine.Handle, error) {
		return srv.SubmitSLO(req, slo, nil)
	}, tr, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 24 {
		t.Fatalf("report covers %d requests, want 24", rep.Requests)
	}
	if rep.Failed != 0 {
		for _, r := range rep.Results {
			if r.Err != nil {
				t.Logf("request %d (%s): %v", r.ID, r.Cohort, r.Err)
			}
		}
		t.Fatalf("%d requests failed", rep.Failed)
	}
	if rep.Completed != 24 {
		t.Fatalf("completed %d of 24", rep.Completed)
	}
	// Every cohort in the trace shows up in the per-cohort summary, and
	// every request streamed tokens with a measured TTFT.
	for name, n := range tr.CohortCounts() {
		if rep.Cohorts[name].Requests != n {
			t.Errorf("cohort %s: report has %d requests, trace has %d", name, rep.Cohorts[name].Requests, n)
		}
	}
	for _, r := range rep.Results {
		if r.Tokens == 0 || r.TTFT <= 0 {
			t.Errorf("request %d: %d tokens, TTFT %v", r.ID, r.Tokens, r.TTFT)
		}
	}
	if rep.SLORequests != 24 {
		t.Errorf("all cohorts carry SLOs, but only %d counted", rep.SLORequests)
	}
	if rep.TTFT.P99 < rep.TTFT.P50 || rep.TTFT.P50 <= 0 {
		t.Errorf("implausible TTFT summary %+v", rep.TTFT)
	}
	st := srv.Stats()
	if st.Submitted != 24 {
		t.Errorf("server saw %d requests", st.Submitted)
	}
}

// TestRunSpeedup: Speed compresses playback without changing the
// request population.
func TestRunSpeedup(t *testing.T) {
	srv, _ := newTestServer(t, false)
	defer srv.Close()
	// Rate 1 rps spans ~7s; at 50x the arrivals land within ~140ms, so
	// even race-instrumented processing finishes well inside the span.
	tr, err := PoissonChat(1, 8).Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(func(req workload.Request, slo SLO) (*engine.Handle, error) {
		return srv.SubmitSLO(req, slo, nil)
	}, tr, RunConfig{Speed: 50})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 8 {
		t.Fatalf("completed %d of 8", rep.Completed)
	}
	if rep.Elapsed.Seconds() > tr.Span().Seconds() {
		t.Errorf("50x playback took %v for a %v trace", rep.Elapsed, tr.Span())
	}
}

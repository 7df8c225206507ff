package traffic

import (
	"context"
	"errors"
	"testing"

	"moelightning/internal/engine"
	"moelightning/internal/model"
	"moelightning/internal/workload"
)

func newTestServer(t *testing.T) *engine.Server {
	t.Helper()
	host, err := engine.NewHost(model.Tiny(), 11, 4, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := engine.NewServer(host, engine.ServeConfig{
		Config:          engine.Config{MicroBatch: 2, MaxContext: 64},
		NumMicroBatches: 2, GenLen: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestRunBurstyAgainstLiveServer plays a seeded bursty trace open-loop
// against a real tiny server: requests are submitted concurrently from
// per-request goroutines at their arrival instants (the -race CI run
// exercises concurrent Submit), and the report must account for every
// request with measured latencies.
func TestRunBurstyAgainstLiveServer(t *testing.T) {
	srv := newTestServer(t)
	defer srv.Close()

	tr, err := BurstyMix(60, 24).Generate(2024)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(func(req workload.Request, slo SLO) (*engine.Handle, error) {
		return srv.SubmitSLO(context.Background(), req, slo)
	}, tr, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 24 {
		t.Fatalf("report covers %d requests, want 24", rep.Requests)
	}
	if rep.Completed+rep.Failed != rep.Requests {
		t.Errorf("completed %d + failed %d != %d requests", rep.Completed, rep.Failed, rep.Requests)
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
	if rep.SLOMet > rep.SLORequests {
		t.Errorf("slo met %d > slo requests %d", rep.SLOMet, rep.SLORequests)
	}
	if rep.TTFT.P50 <= 0 {
		t.Errorf("implausible TTFT summary %+v", rep.TTFT)
	}
	for name, l := range map[string]LatencyMS{"TTFT": rep.TTFT, "TPOT": rep.TPOT} {
		if l.P50 < 0 || l.P50 > l.P95 || l.P95 > l.P99 {
			t.Errorf("%s percentiles not monotone: %+v", name, l)
		}
	}
	st := srv.Stats()
	if st.Submitted != 24 {
		t.Errorf("server saw %d requests", st.Submitted)
	}
}

// TestRunSpeedup: Speed compresses playback without changing the
// request population.
func TestRunSpeedup(t *testing.T) {
	srv := newTestServer(t)
	defer srv.Close()
	// Rate 1 rps spans ~7s; at 50x the arrivals land within ~140ms, so
	// even race-instrumented processing finishes well inside the span.
	tr, err := PoissonChat(1, 8).Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(func(req workload.Request, slo SLO) (*engine.Handle, error) {
		return srv.SubmitSLO(context.Background(), req, slo)
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

// TestRunExcludesCanceledFromSLO: a request its client cancels is
// neither met nor missed, as in the server's own Stats. Its context
// is canceled before the request arrives, so the server reaps it
// at the next wave boundary.
func TestRunExcludesCanceledFromSLO(t *testing.T) {
	srv := newTestServer(t)
	defer srv.Close()
	tr, err := PoissonChat(1, 1).Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(func(req workload.Request, slo SLO) (*engine.Handle, error) {
		return srv.SubmitSLO(canceled, req, slo)
	}, tr, RunConfig{Speed: 50})
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.Results[0]; !errors.Is(r.Err, engine.ErrCanceled) || r.SLO.IsZero() {
		t.Fatalf("want a canceled SLO-bearing request, got err %v, SLO %+v", r.Err, r.SLO)
	}
	if rep.SLORequests != 0 || rep.SLOMissTTFT != 0 {
		t.Errorf("canceled request judged: %d SLO requests, %d TTFT misses", rep.SLORequests, rep.SLOMissTTFT)
	}
}

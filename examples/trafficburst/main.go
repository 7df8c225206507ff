// TrafficBurst: the open-loop serving harness end to end. A seeded
// bursty (MMPP-2) trace over the four tiny-scale cohorts — chat, RAG,
// agentic, batch summarization, each with its own TTFT/TPOT SLO — is
// played in real time against a live Server: requests arrive on the
// trace's clock from their own goroutines, exactly like production
// ingress, and each request's TTFT target, submitted with it, decides
// by deadline slack who enters each wave. The report shows per-cohort
// latency percentiles and goodput under SLO; the same trace replayed
// from the same seed is byte-identical.
package main

import (
	"context"
	"fmt"
	"os"

	"moelightning"
	"moelightning/internal/metrics"
	"moelightning/internal/traffic"
	"moelightning/internal/workload"
)

func main() {
	// A bursty mix: base 15 rps with 4x bursts, 40 requests across all
	// four cohorts. Same seed, same trace — always.
	scenario := traffic.BurstyMix(15, 40)
	trace, err := scenario.Generate(2024)
	if err != nil {
		fail(err)
	}
	fmt.Printf("trace %q (%s): %d requests over %v, cohorts %v\n\n",
		trace.Scenario, trace.Arrival, len(trace.Events), trace.Span().Round(1e6), trace.CohortCounts())

	srv, err := moelightning.NewServer(moelightning.ServerConfig{
		Model:      moelightning.TinyMoE(),
		Seed:       2024,
		GenLen:     10,
		MaxContext: 64,
	})
	if err != nil {
		fail(err)
	}
	defer srv.Close()

	report, err := traffic.Run(func(req workload.Request, slo traffic.SLO) (*moelightning.Handle, error) {
		return srv.SubmitSLO(context.Background(), req, slo)
	}, trace, traffic.RunConfig{})
	if err != nil {
		fail(err)
	}

	table := &metrics.Table{Header: []string{"cohort", "requests", "slo met", "ttft p50 ms", "ttft p95 ms", "tpot p95 ms"}}
	for _, name := range report.CohortNames() {
		c := report.Cohorts[name]
		table.Add(name, c.Requests, fmt.Sprintf("%d/%d", c.SLOMet, c.Requests),
			fmt.Sprintf("%.1f", c.TTFT.P50), fmt.Sprintf("%.1f", c.TTFT.P95), fmt.Sprintf("%.1f", c.TPOT.P95))
	}
	fmt.Print(table.String())
	fmt.Printf("\noffered %.1f rps; goodput %.1f rps (%d/%d under SLO); TTFT p99 %.1f ms\n",
		report.OfferedRPS, report.GoodputRPS, report.SLOMet, report.SLORequests, report.TTFT.P99)

	st := srv.Stats()
	fmt.Printf("server: %d waves, %d deferred (max %d per request), %d SLO misses (ttft %d / tpot %d)\n",
		st.Waves, st.Deferred, st.MaxDeferrals, st.SLOMissTTFT+st.SLOMissTPOT, st.SLOMissTTFT, st.SLOMissTPOT)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "trafficburst:", err)
	os.Exit(1)
}

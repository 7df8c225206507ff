// Command moebench regenerates the paper's tables and figures.
//
// Usage:
//
//	moebench -exp fig7 [-settings S1,S2] [-gens 32,64,128,256]
//	moebench -exp tab4 | tab5 | fig1 | fig4 | fig5 | fig6 | fig8 | fig9 | fig10
//	moebench -exp slo     (open-loop traffic + SLO sweep -> BENCH_serve.json)
//	moebench -exp all
//
// Each experiment prints the same rows/series the paper reports; see
// CHANGES.md and ROADMAP.md, "Numbers on record", for the
// paper-vs-measured record. -exp slo drives the live server with seeded
// Poisson and bursty arrival traces at several load multiples, reports
// p50/p95/p99 TTFT/TPOT and goodput under per-cohort SLOs, finds the
// saturation knee, and writes the standing BENCH_serve.json (-json
// overrides the path). The Submit / Tokens / Stats walk-through is
// examples/quickstart.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"moelightning"
	"moelightning/internal/calib"
	"moelightning/internal/chaos"
	"moelightning/internal/experiments"
	"moelightning/internal/metrics"
	"moelightning/internal/traffic"
	"moelightning/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: fig1,fig4,fig5,fig6,fig7,fig8,fig9,fig10,tab4,tab5,disk,quant,sparsity,latency,slo,calib,chaos,all")
	settings := flag.String("settings", "S1,S2,S6,S7", "comma-separated settings for fig7")
	gens := flag.String("gens", "32,64,128,256", "comma-separated generation lengths")
	kvdtype := flag.String("kvdtype", "f32", "KV cache codec for -exp slo: f32 or int8")
	sharedPrefix := flag.Bool("sharedprefix", true, "shared-prefix KV reuse for -exp slo (refcounted blocks, copy-on-write)")
	jsonPath := flag.String("json", "", "write the machine-readable result here (slo defaults to BENCH_serve.json, calib to BENCH_calib.json, chaos to BENCH_chaos.json)")
	rps := flag.Float64("rps", 12, "base arrival rate for -exp slo scenarios")
	requests := flag.Int("requests", 36, "requests per sweep point for -exp slo")
	sweep := flag.String("sweep", "0.5,1,2", "comma-separated arrival-rate multiples for the -exp slo saturation sweep")
	seed := flag.Int64("seed", 2024, "trace seed for -exp slo and bench seed for -exp calib")
	quick := flag.Bool("quick", false, "shrink -exp calib/chaos runs for smoke tests")
	flag.Parse()

	kvDtype, err := moelightning.ParseKVDtype(*kvdtype)
	if err != nil {
		fatal(err)
	}

	genLens, err := parseInts(*gens)
	if err != nil {
		fatal(err)
	}
	settingNames := strings.Split(*settings, ",")
	sweepScales, err := parseFloats(*sweep)
	if err != nil {
		fatal(err)
	}

	run := func(id string) error {
		switch id {
		case "fig1":
			pts := experiments.Figure1([]float64{100, 112, 128, 160, 192, 224, 256, 320})
			fmt.Print(experiments.RenderFigure1(pts))
		case "fig4":
			fmt.Print(experiments.Figure4().Render())
		case "fig5":
			fmt.Print(experiments.Figure5().Render())
		case "fig6":
			rs, err := experiments.Figure6(4, 4)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFigure6(rs))
		case "fig7":
			rows, err := experiments.Figure7(settingNames, genLens)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFigure7(rows))
		case "fig8":
			rows, err := experiments.Figure8(genLens)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFigure8(rows))
		case "fig9":
			cells, err := experiments.Figure9([]int{32, 64, 128, 256}, []int{128, 256, 512, 1024, 2048})
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFigure9(cells))
		case "fig10":
			cells := experiments.Figure10(
				[]float64{1, 2, 4, 6, 8, 10},
				[]float64{100, 200, 300, 400, 500})
			fmt.Print(experiments.RenderFigure10(cells))
		case "disk":
			rows := experiments.DiskOffload([]float64{32, 48, 64, 96, 128, 192})
			fmt.Print(experiments.RenderDiskOffload(rows))
		case "quant":
			rows := experiments.Quantization()
			fmt.Print(experiments.RenderQuantization(rows))
			fmt.Println()
			fmt.Print(experiments.RenderMeasuredQuantization(experiments.MeasuredQuantization()))
		case "latency":
			rows := experiments.LatencyRegime([]int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
			fmt.Print(experiments.RenderLatencyRegime(rows))
		case "sparsity":
			rows, err := experiments.KVSparsity([]float64{1, 0.5, 0.25, 0.125})
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderKVSparsity(rows))
		case "slo":
			path := *jsonPath
			if path == "" {
				path = "BENCH_serve.json"
			}
			return runSLO(kvDtype, prefixMode(*sharedPrefix), *rps, *requests, sweepScales, *seed, path)
		case "calib":
			path := *jsonPath
			if path == "" {
				path = "BENCH_calib.json"
			}
			return runCalib(*quick, *seed, path)
		case "chaos":
			path := *jsonPath
			if path == "" {
				path = "BENCH_chaos.json"
			}
			return runChaos(*quick, *seed, path)
		case "tab4":
			rows, err := experiments.Table4()
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable4(rows))
		case "tab5":
			rows, err := experiments.Table5()
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable5(rows))
			opt, err := experiments.Table5Optimized()
			if err != nil {
				return err
			}
			fmt.Println()
			fmt.Print(experiments.RenderTable5(opt))
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		return nil
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "tab4", "tab5", "disk", "quant", "sparsity", "latency"}
	}
	for _, id := range ids {
		fmt.Printf("==== %s ====\n", id)
		if err := run(id); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

// prefixMode maps the -sharedprefix flag to the facade knob.
func prefixMode(on bool) moelightning.SharedPrefixMode {
	if on {
		return moelightning.SharedPrefixOn
	}
	return moelightning.SharedPrefixOff
}

// runSLO is the standing serve benchmark: seeded open-loop scenarios
// (steady Poisson chat+agentic, bursty four-cohort mix) played in real
// time against a live SLO-aware tiny server at several arrival-rate
// multiples. Each sweep point reports goodput under the per-cohort SLOs
// and TTFT/TPOT percentiles; the knee marks where extra offered load
// stops buying goodput. The whole result lands in BENCH_serve.json.
func runSLO(kvDtype moelightning.KVDtype, prefix moelightning.SharedPrefixMode, rps float64, requests int, scales []float64, seed int64, jsonPath string) error {
	if len(scales) < 3 {
		return fmt.Errorf("slo: need >= 3 sweep scales, got %v", scales)
	}
	const genLen = 10
	factory := func(scale float64) (traffic.ServerHooks, error) {
		srv, err := moelightning.NewServer(moelightning.ServerConfig{
			Model:          moelightning.TinyMoE(),
			Seed:           seed,
			GenLen:         genLen,
			MaxContext:     64,
			KVDtype:        kvDtype,
			SLOAware:       true,
			SharedPrefixKV: prefix,
		})
		if err != nil {
			return traffic.ServerHooks{}, err
		}
		return traffic.ServerHooks{
			Submit: func(req workload.Request, slo traffic.SLO) (*moelightning.Handle, error) {
				return srv.SubmitSLO(context.Background(), req, slo)
			},
			Stats: srv.Stats,
			Close: srv.Close,
		}, nil
	}

	scenarios := []traffic.Scenario{
		traffic.PoissonChat(rps, requests),
		traffic.BurstyMix(rps, requests),
	}
	bench := traffic.BenchResult{
		Schema:        traffic.BenchSchema,
		GeneratedUnix: time.Now().Unix(),
		Model:         moelightning.TinyMoE().Name,
		KVDtype:       kvDtype.String(),
		Admission:     "deadline-slack", // the factory's SLOAware: true
		Seed:          seed,
	}
	for _, scn := range scenarios {
		points, err := traffic.Sweep(factory, scn, seed, scales, traffic.RunConfig{})
		if err != nil {
			return err
		}
		knee := traffic.FindKnee(points)
		table := &metrics.Table{Header: []string{
			"scale", "offered rps", "goodput rps", "slo met", "ttft p50/p95/p99 ms", "tpot p95 ms", "deferred", "knee"}}
		for i, p := range points {
			mark := ""
			if i == knee {
				mark = "<-- knee"
			}
			table.Add(
				fmt.Sprintf("%.2g", p.Scale),
				fmt.Sprintf("%.1f", p.OfferedRPS),
				fmt.Sprintf("%.1f", p.GoodputRPS),
				fmt.Sprintf("%d/%d", p.SLOMet, p.SLORequests),
				fmt.Sprintf("%.1f/%.1f/%.1f", p.TTFT.P50, p.TTFT.P95, p.TTFT.P99),
				fmt.Sprintf("%.1f", p.TPOT.P95),
				p.Deferred, mark)
		}
		fmt.Printf("-- %s (%s) --\n%s", scn.Name, scn.Arrival.Name(), table.String())
		bench.Scenarios = append(bench.Scenarios, traffic.BenchScenario{
			Name:             scn.Name,
			Arrival:          scn.Arrival.Name(),
			RequestsPerPoint: requests,
			Points:           points,
			Knee:             knee,
		})
	}
	if err := traffic.WriteBench(jsonPath, bench); err != nil {
		return err
	}
	// Read back through the validator so a malformed write fails loudly.
	if _, err := traffic.ReadBench(jsonPath); err != nil {
		return fmt.Errorf("slo: %s failed validation after write: %w", jsonPath, err)
	}
	fmt.Printf("wrote %s (%d scenarios, %d-point sweep)\n", jsonPath, len(bench.Scenarios), len(scales))
	return nil
}

// runCalib harvests the calibration table from live micro-benches,
// predicts the standing serve scenarios through it and through the
// analytic host model, measures the real server on the same scenarios,
// and writes the whole loop to BENCH_calib.json (read back through the
// validator so a malformed write fails loudly).
func runCalib(quick bool, seed int64, jsonPath string) error {
	report, err := experiments.Calibration(quick, seed)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderCalibration(report))
	if err := calib.WriteBench(jsonPath, report); err != nil {
		return err
	}
	if _, err := calib.LoadBench(jsonPath); err != nil {
		return fmt.Errorf("calib: %s failed validation after write: %w", jsonPath, err)
	}
	fmt.Printf("wrote %s (%d scenarios, %d table entries)\n",
		jsonPath, len(report.Scenarios), len(report.Table.Entries))
	return nil
}

// runChaos plays the standing fault-injection scenario (a seeded
// bursty trace with transient expert-fetch faults, forced KV-pool
// exhaustions and overload control) against a live server and verifies
// the robustness invariants: every handle terminates, survivors are
// bit-identical to the sequential reference, no KV blocks leak, and
// Close returns within its bound. -quick shrinks the trace for CI
// smoke runs.
func runChaos(quick bool, seed int64, jsonPath string) error {
	cfg := chaos.Config{Seed: seed}
	if quick {
		cfg.Requests = 48
		cfg.Speed = 32
	}
	rep, err := chaos.Run(cfg)
	table := &metrics.Table{Header: []string{"metric", "value"}}
	table.Add("scenario", fmt.Sprintf("%s (seed %d, %d requests)", rep.Scenario, rep.Seed, rep.Requests))
	table.Add("submitted / shed", fmt.Sprintf("%d / %d", rep.Submitted, rep.Shed))
	table.Add("completed / canceled / failed", fmt.Sprintf("%d / %d / %d", rep.Completed, rep.Canceled, rep.Failed))
	table.Add("deadline dropped", rep.DeadlineDropped)
	table.Add("fault retries / failures", fmt.Sprintf("%d / %d", rep.FaultRetries, rep.FaultFailures))
	table.Add("wave timeouts", rep.WaveTimeouts)
	table.Add("leaked-block waves", rep.LeakedBlockWaves)
	table.Add("survivors checked / mismatched", fmt.Sprintf("%d / %d", rep.SurvivorsChecked, rep.Mismatched))
	table.Add("close", fmt.Sprintf("%dms (within bound: %v)", rep.CloseMillis, rep.CloseWithinBound))
	fmt.Print(table.String())
	if werr := traffic.WriteJSON(jsonPath, rep); werr != nil {
		return werr
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return err
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "moebench:", err)
	os.Exit(1)
}

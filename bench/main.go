// Command bench is the repository's standing benchmark: four named
// workloads against the public moelightning.Server, end-to-end metrics
// measured with tracing off, and a traced run with layer probes. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run, result on the last line
//	bench [--runs N] [--out FILE]                            every workload, each in its own process
//	bench -compare A.json B.json                             two result files against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"moelightning"
	"moelightning/internal/workload"
)

// lateLimit is how late the load generator's p95 may run before the
// run is reported invalid.
const lateLimit = 5.0 // ms

// probeBudget is how long each layer probe repeats its body.
const probeBudget = 40 * time.Millisecond

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	runs      int
	out       string
	dir       string
	benchmark string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all: every workload, each in a child process")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every request list and arrival schedule")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run with layer probes, printing the per-layer metrics")
	flag.IntVar(&o.runs, "runs", 1, "with -workload all: end-to-end runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&o.out, "out", "", "write the full result here (default with -workload all: <dir>/result.json)")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for traces and results")
	flag.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "the benchmark's contract file")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()

	if err := run(o, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, compare bool, args []string) error {
	bf, err := loadJSON[benchmarkFile](o.benchmark)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(os.Stdout, bf, args[0], args[1])
	}
	if o.seconds <= 0 {
		o.seconds = float64(bf.RunSeconds)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	if o.workload == "all" {
		return runAll(o, bf)
	}
	s, ok := findSpec(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}

	var res runResult
	if o.trace == 1 {
		res, err = runTraced(s, o, bf)
	} else {
		res, err = runEndToEnd(s, o, bf)
	}
	if err != nil {
		return err
	}
	if o.out != "" {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res.resultLine)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d requests failed (%d of %d checked against the reference differ)",
			s.name, res.Failed, res.Attempted, res.Mismatches, res.Checked)
	}
	return nil
}

// runEndToEnd is the untraced run: set-up measured setupReps times, one
// timed window, the reference check, and the end-to-end metrics.
func runEndToEnd(s spec, o options, bf benchmarkFile) (runResult, error) {
	var res runResult
	var setups []float64
	var srv *moelightning.Server
	for begin := time.Now(); len(setups) == 0 || (len(setups) < setupReps && time.Since(begin) < setupBudget); {
		if srv != nil {
			if err := tearDown(srv); err != nil {
				return res, err
			}
		}
		var took time.Duration
		var err error
		if srv, took, err = setUp(s, o.seed); err != nil {
			return res, err
		}
		setups = append(setups, took.Seconds())
	}
	w, err := s.runWindow(srv, ladder[baseRung], o.seed, streamTimed, seconds(o.seconds), nil)
	if err != nil {
		return res, err
	}
	if err := tearDown(srv); err != nil {
		return res, err
	}
	checked, mismatches, err := referenceCheck(s, o.seed, w.recs)
	if err != nil {
		return res, err
	}

	c := w.client()
	res.Metrics, err = named(bf.EndToEnd, c.endToEnd(median(setups), w.rss))
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed, res.Correct = c.sent, c.failed, c.failed == 0
	res.detail = detail{
		Workload: s.name, Seed: o.seed, Valid: c.lateP95 <= lateLimit,
		Checked: checked, Mismatches: mismatches,
		TailPercentile: c.tailPct, TTFTSamples: c.ttftSamples,
		Phases: []phaseCount{w.count()},
	}
	fmt.Fprintf(os.Stderr, "host granted %.2f of the CPU time wanted; %d set-ups, %d closed batches\n", w.share, len(setups), len(w.rounds))
	report(res, c)
	return res, nil
}

// runTraced is the traced run. A closed workload spends a third of its
// time on an untraced window, a third on the same window traced, and
// the rest on the probes and the driven waves; the online mix spends a
// quarter each on the base rung untraced and traced, then the two
// higher rungs. Every window gets a fresh server.
func runTraced(s spec, o options, bf benchmarkFile) (runResult, error) {
	var res runResult
	tr := newTracer()
	t := tracedRun{s: s}
	share := seconds(o.seconds / 3)
	if s.open {
		share = seconds(o.seconds / 4)
	}
	var windows []window
	play := func(ph phaseSpec, stream int, wtr *tracer) (window, error) {
		srv, _, err := setUp(s, o.seed)
		if err != nil {
			return window{}, err
		}
		w, err := s.runWindow(srv, ph, o.seed, stream, share, wtr)
		if cerr := tearDown(srv); err == nil {
			err = cerr
		}
		windows = append(windows, w)
		return w, err
	}

	base := ladder[baseRung]
	untraced, err := play(base, streamTimed, nil)
	if err != nil {
		return res, err
	}
	if t.main, err = play(base, streamTimed, tr); err != nil {
		return res, err
	}
	t.samples = tr.samples // the only sampled window so far
	t.overhead = 1 - ratio(t.main.client().genTokS, untraced.client().genTokS)
	if s.open {
		for i, ph := range ladder {
			w := t.main
			if i != baseRung {
				if w, err = play(ph, streamLadder+i, tr); err != nil {
					return res, err
				}
			}
			t.rungs = append(t.rungs, ladderResult{ph.rps, w.client()})
		}
	}

	if t.probes, err = runProbes(tr, probeBudget); err != nil {
		return res, err
	}
	driven := make([]workload.Request, s.drivenSeqs)
	for i, g := range s.stream(o.seed, streamTimed).take(s.drivenSeqs) {
		driven[i] = g.req
	}
	if t.wave, err = driveWave(tr, s, driven); err != nil {
		return res, err
	}
	if t.lone, err = driveWave(tr, s, driven[:1]); err != nil {
		return res, err
	}

	checked, mismatches, err := referenceCheck(s, o.seed, t.main.recs)
	if err != nil {
		return res, err
	}
	var phases []phaseCount
	for _, w := range windows { // counted after the check has marked mismatches
		pc := w.count()
		phases = append(phases, pc)
		t.sent += pc.Sent
		t.failed += pc.Failed
	}

	res.Metrics, err = named(bf.PerLayer, t.layerMetrics())
	if err != nil {
		return res, err
	}
	c := t.main.client()
	res.Attempted, res.Failed, res.Correct = t.sent, t.failed, t.failed == 0
	res.detail = detail{
		Workload: s.name, Seed: o.seed, Traced: true, Valid: c.lateP95 <= lateLimit,
		Checked: checked, Mismatches: mismatches,
		TailPercentile: c.tailPct, TTFTSamples: c.ttftSamples, Phases: phases,
		TraceFile: filepath.Join(o.dir, "trace-"+s.name+".json"),
	}
	if err := tr.write(res.TraceFile); err != nil {
		return res, err
	}
	report(res, c)
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// report prints a run's metrics, by name with unit, to standard error;
// standard output carries only the result line.
func report(res runResult, c clientStats) {
	fmt.Fprintf(os.Stderr, "%s seed %d traced=%v: sent %d failed %d, reference checked %d differ %d, ttft tail p%.0f over %d samples, late p95 %.3f ms valid=%v\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed, res.Checked, res.Mismatches,
		res.TailPercentile*100, res.TTFTSamples, c.lateP95, res.Valid)
	fmt.Fprintf(os.Stderr, "  wall clock: %.1f tok/s, ttft p50 %.1f ms tail %.1f ms, met limits %.3f, cpu %.2f ms/tok\n",
		c.genTokSWall, c.ttftP50, c.ttftTail, c.metFrac, c.cpuMsPerTok)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
}

// runAll runs every workload — o.runs end-to-end runs and one traced
// run each — every run in its own child process, so that heap, GC state
// and the resident-set high-water mark do not leak between them.
func runAll(o options, bf benchmarkFile) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := resultFile{Fingerprint: hostFingerprint(o.seed), Seconds: o.seconds, Workloads: make(map[string][]runResult)}
	child := func(name string, seed int64, trace int) error {
		tmp := filepath.Join(o.dir, fmt.Sprintf("run-%s-%d-%d.json", name, seed, trace))
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.seconds),
			"--trace", fmt.Sprint(trace), "--out", tmp, "--dir", o.dir, "--benchmark", o.benchmark)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run() // waits for the child to end
		data, err := os.ReadFile(tmp)
		if err != nil {
			return errors.Join(runErr, err)
		}
		var res runResult
		if err := json.Unmarshal(data, &res); err != nil {
			return errors.Join(runErr, err)
		}
		rf.Workloads[name] = append(rf.Workloads[name], res)
		return errors.Join(runErr, os.Remove(tmp))
	}
	var failed error
	for _, w := range bf.Workloads {
		for i := 0; i < o.runs; i++ {
			failed = errors.Join(failed, child(w.Name, o.seed+int64(i), 0))
		}
		failed = errors.Join(failed, child(w.Name, o.seed, 1))
	}
	out := o.out
	if out == "" {
		out = filepath.Join(o.dir, "result.json")
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	printSummary(os.Stdout, bf, rf)
	fmt.Printf("result file: %s\n", out)
	return failed
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "gen_tok_s", Better: "higher", Bound: 0.08}
	lower := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", higher, steady(500), steady(500), within},
		{"slower inside the bound", higher, steady(500), steady(470), within},
		{"slower beyond the bound", higher, steady(500), steady(440), worse},
		{"faster", higher, steady(500), steady(600), within},
		{"noisy runs", higher, []float64{400, 450, 550, 600}, steady(500), unresolved},
		{"lower is better, got higher", lower, steady(1), steady(1.3), worse},
		{"lower is better, got lower", lower, steady(1), steady(0.5), within},
		{"single runs", higher, []float64{500}, []float64{400}, worse},
	} {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	bf := benchmarkFile{
		Workloads: []workloadDef{{Name: "w"}},
		EndToEnd:  []metricDef{{Name: "gen_tok_s", Unit: "tok/s", Better: "higher", Bound: 0.1}},
	}
	write := func(name string, values ...float64) string {
		rf := resultFile{Workloads: map[string][]runResult{}}
		for _, v := range values {
			rf.Workloads["w"] = append(rf.Workloads["w"], runResult{resultLine: resultLine{Metrics: map[string]metricValue{"gen_tok_s": {v, "tok/s"}}}})
		}
		// A traced run's metrics never count as end-to-end values.
		rf.Workloads["w"] = append(rf.Workloads["w"], runResult{detail: detail{Traced: true}, resultLine: resultLine{Metrics: map[string]metricValue{"gen_tok_s": {1, "tok/s"}}}})
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", 100, 101, 99, 100)
	var out bytes.Buffer
	if err := compareFiles(&out, bf, a, write("b.json", 98, 99, 97, 98)); err != nil {
		t.Errorf("two agreeing files: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, bf, a, write("c.json", 80, 81, 79, 80)); err == nil || !strings.Contains(out.String(), worse) {
		t.Errorf("a 20%% slower file passed a 10%% bound: %v\n%s", err, out.String())
	}
}

// BENCHMARK.json is held to the limits its readers enforce, and names
// exactly the workloads and metrics this program produces.
func TestBenchmarkFile(t *testing.T) {
	bf, err := loadJSON[benchmarkFile]("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside the allowed form", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the file, %d in the program", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		check("workload", w.Name)
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in the file, %q in the program", i, w.Name, specs[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}

	setup := false
	for _, d := range bf.EndToEnd {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the allowed form", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range bf.PerLayer {
		check("per-layer metric", d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(bf.EndToEnd), len(bf.PerLayer))
	}

	// Every listed metric is measured, and every measured one is listed.
	e2e := clientStats{}.endToEnd(0, 0)
	if _, err := named(bf.EndToEnd, e2e); err != nil {
		t.Error(err)
	}
	if len(e2e) != len(bf.EndToEnd) {
		t.Errorf("program measures %d end-to-end metrics, file lists %d", len(e2e), len(bf.EndToEnd))
	}
	probes, err := runProbes(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := findSpec("online_mix")
	wave := waveTimes{steps: []float64{3, 2, 2}, build: time.Millisecond}
	layer := tracedRun{s: s, probes: probes, wave: wave, lone: wave}.layerMetrics()
	if _, err := named(bf.PerLayer, layer); err != nil {
		t.Error(err)
	}
	if len(layer) != len(bf.PerLayer) {
		t.Errorf("program measures %d per-layer metrics, file lists %d", len(layer), len(bf.PerLayer))
	}
	for n, v := range probes {
		if v <= 0 {
			t.Errorf("probe %s measured %v", n, v)
		}
	}
}

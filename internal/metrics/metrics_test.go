package metrics

import (
	"strings"
	"testing"

	"moelightning/internal/sim"
)

func TestTable(t *testing.T) {
	tb := Table{Header: []string{"name", "value"}}
	tb.Add("alpha", 12.345)
	tb.Add("a-much-longer-name", 7)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %q", lines)
	}
	// All rows align to the widest cell.
	w := len(lines[0])
	for _, l := range lines[1:] {
		if len(l) > w+8 {
			t.Errorf("misaligned line %q", l)
		}
	}
	if !strings.Contains(out, "12.3") {
		t.Errorf("float formatting: %s", out)
	}
}

func TestFormatFloatRanges(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{12345, "12345"},
		{42.42, "42.4"},
		{1.5, "1.500"},
		{0.0001, "1.00e-04"},
	} {
		if got := formatFloat(tc.v); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestLogLogPlot(t *testing.T) {
	s := Series{Name: "line", X: []float64{1, 10, 100}, Y: []float64{1, 10, 100}, Marker: 'o'}
	out := LogLogPlot("title", 40, 10, []Series{s})
	if !strings.Contains(out, "title") || !strings.Contains(out, "o line") {
		t.Errorf("plot: %s", out)
	}
	if strings.Count(out, "o") < 3 {
		t.Error("points missing")
	}
	empty := LogLogPlot("t", 40, 10, []Series{{Name: "neg", X: []float64{-1}, Y: []float64{-1}}})
	if !strings.Contains(empty, "no positive data") {
		t.Error("negative data should yield the empty message")
	}
}

func TestHeatmap(t *testing.T) {
	out := Heatmap("hm", []string{"r1", "r2"}, []string{"a", "b"},
		[][]float64{{0, 1}, {0.5, -1}})
	if !strings.Contains(out, "hm") || !strings.Contains(out, "?") {
		t.Errorf("heatmap: %s", out)
	}
	if !strings.Contains(out, "@") {
		t.Error("full cell should use the densest shade")
	}
}

func TestGantt(t *testing.T) {
	res, err := sim.Run([]sim.Task{
		{ID: 1, Kind: "weights", Lane: sim.HtoD, Duration: 2},
		{ID: 2, Kind: "gpu-block", Lane: sim.GPU, Duration: 1, Deps: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt("trace", res, 40)
	if !strings.Contains(out, "W=weights") || !strings.Contains(out, "G=gpu-block") {
		t.Errorf("legend: %s", out)
	}
	if !strings.Contains(out, "makespan=3.0000s") {
		t.Errorf("makespan: %s", out)
	}
}

func TestGanttUniqueLetters(t *testing.T) {
	res, err := sim.Run([]sim.Task{
		{ID: 1, Kind: "pin", Lane: sim.Pin, Duration: 1},
		{ID: 2, Kind: "pre-attn", Lane: sim.GPU, Duration: 1},
		{ID: 3, Kind: "post-attn", Lane: sim.GPU, Duration: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := Gantt("t", res, 40)
	legend := out[strings.Index(out, "legend:"):]
	seen := map[byte]int{}
	for _, part := range strings.Fields(legend)[1:] {
		if len(part) > 2 && part[1] == '=' {
			seen[part[0]]++
		}
	}
	for ch, n := range seen {
		if n > 1 {
			t.Errorf("letter %c used %d times: %s", ch, n, legend)
		}
	}
}

// TestGanttLegendDeterministic renders one result repeatedly: the
// legend lists kinds in the order their letters were assigned, so the
// chart is the same string every time.
func TestGanttLegendDeterministic(t *testing.T) {
	res, err := sim.Run([]sim.Task{
		{ID: 1, Kind: "weights", Lane: sim.HtoD, Duration: 1},
		{ID: 2, Kind: "pin", Lane: sim.Pin, Duration: 1},
		{ID: 3, Kind: "pre-attn", Lane: sim.GPU, Duration: 1, Deps: []int{1}},
		{ID: 4, Kind: "cpu-attn", Lane: sim.CPU, Duration: 1, Deps: []int{3}},
		{ID: 5, Kind: "post-attn", Lane: sim.GPU, Duration: 1, Deps: []int{4}},
		{ID: 6, Kind: "qkv", Lane: sim.DtoH, Duration: 1, Deps: []int{3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	first := Gantt("t", res, 40)
	for i := 0; i < 20; i++ {
		if out := Gantt("t", res, 40); out != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, out, first)
		}
	}
	legend := first[strings.Index(first, "legend:"):strings.Index(first, "  makespan")]
	const want = "legend: P=pre-attn p=post-attn C=cpu-attn W=weights Q=qkv K=pin"
	if legend != want {
		t.Errorf("legend %q, want %q (first-use order)", legend, want)
	}
}

func TestGanttEmpty(t *testing.T) {
	if out := Gantt("t", sim.Result{}, 40); !strings.Contains(out, "empty") {
		t.Error("empty result")
	}
}

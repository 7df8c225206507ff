// Command simtrace simulates one decode step under each scheduling
// strategy and prints ASCII Gantt charts — a textual Fig. 6.
//
// Usage:
//
//	simtrace [-setting S1] [-layers 4] [-mb 4] [-strategy cgopipe]
package main

import (
	"flag"
	"fmt"
	"os"

	"moelightning/internal/experiments"
	"moelightning/internal/metrics"
	"moelightning/internal/schedule"
)

func main() {
	settingName := flag.String("setting", "S1", "hardware setting (S1,S2,S6,S7,S8,S9)")
	layers := flag.Int("layers", 4, "layers to trace")
	mb := flag.Int("mb", 4, "micro-batches to trace")
	strategy := flag.String("strategy", "", "trace a single strategy (cgopipe, s2-overlap, s3-serialcpu, s4-gpuattn, serial); empty = all of Fig. 6")
	width := flag.Int("width", 100, "chart width")
	flag.Parse()

	if *strategy == "" && *settingName == "S1" {
		rs, err := experiments.Figure6("S1", *layers, *mb)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.RenderFigure6(rs))
		return
	}

	strategies := schedule.Strategies()
	if *strategy != "" {
		strategies = []schedule.Strategy{schedule.Strategy(*strategy)}
	}
	rs, err := experiments.Figure6(*settingName, *layers, *mb, strategies...)
	if err != nil {
		fatal(err)
	}
	for _, r := range rs {
		fmt.Print(metrics.Gantt(string(r.Strategy), r.Result, *width))
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simtrace:", err)
	os.Exit(1)
}

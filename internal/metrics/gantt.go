package metrics

import (
	"fmt"
	"strings"

	"moelightning/internal/sim"
)

// Gantt renders a simulation's lane timelines as ASCII — the Fig. 6
// schedule diagrams. Each lane is one row; task kinds map to letters;
// idle time shows as '.', making bubbles visible at a glance.
func Gantt(title string, res sim.Result, width int) string {
	if width < 20 {
		width = 20
	}
	if res.Makespan <= 0 {
		return title + "\n(empty)\n"
	}
	scale := float64(width) / res.Makespan
	letters := map[string]byte{}
	var order []string // kinds in letter-assignment order, for the legend
	used := map[byte]bool{}
	alphabet := "WKHQACPBGXYZwkhqacpbgxyz"
	letterFor := func(kind string) byte {
		if b, ok := letters[kind]; ok {
			return b
		}
		// Prefer the kind's initial, then its lowercase, then the first
		// free letter of the fallback alphabet — always unique.
		var b byte = '?'
		if len(kind) > 0 {
			upper := byte(strings.ToUpper(kind)[0])
			lower := byte(strings.ToLower(kind)[0])
			switch {
			case !used[upper]:
				b = upper
			case !used[lower]:
				b = lower
			}
		}
		if b == '?' {
			for i := 0; i < len(alphabet); i++ {
				if !used[alphabet[i]] {
					b = alphabet[i]
					break
				}
			}
		}
		letters[kind] = b
		order = append(order, kind)
		used[b] = true
		return b
	}

	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	for _, lane := range sim.Lanes() {
		spans := res.ByLane[lane]
		if len(spans) == 0 {
			continue
		}
		row := []byte(strings.Repeat(".", width))
		for _, s := range spans {
			lo := int(s.Start * scale)
			hi := int(s.End * scale)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			ch := letterFor(s.Task.Kind)
			for i := lo; i < hi; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "%-5s |%s| %5.1f%% busy\n", lane, row, 100*res.Utilization(lane))
	}
	b.WriteString("legend:")
	for _, kind := range order {
		fmt.Fprintf(&b, " %c=%s", letters[kind], kind)
	}
	fmt.Fprintf(&b, "  makespan=%.4fs\n", res.Makespan)
	b.WriteString("critical path:")
	for _, lane := range sim.Lanes() {
		if share := res.CriticalLaneShare()[lane]; share > 0.005 {
			fmt.Fprintf(&b, " %s=%.0f%%", lane, 100*share)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

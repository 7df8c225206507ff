package sim

import "fmt"

// Validate checks the structural invariants of a completed simulation:
// no two spans overlap on the same lane, every task starts no earlier
// than each of its dependencies' ends, and lane order matches issue
// order. The tests and the experiment harness run it on every result.
func (r Result) Validate(tasks []Task) error {
	byID := make(map[int]Span, len(r.Spans))
	for _, s := range r.Spans {
		byID[s.Task.ID] = s
	}
	for _, t := range tasks {
		s, ok := byID[t.ID]
		if !ok {
			return fmt.Errorf("sim: task %q missing from result", t)
		}
		for _, d := range t.Deps {
			ds, ok := byID[d]
			if !ok {
				return fmt.Errorf("sim: dependency %d of %q missing", d, t)
			}
			if s.Start < ds.End-1e-12 {
				return fmt.Errorf("sim: %q starts at %g before dependency %q ends at %g",
					t, s.Start, ds.Task, ds.End)
			}
		}
	}
	for lane, spans := range r.ByLane {
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].End-1e-12 {
				return fmt.Errorf("sim: lane %v: %q (start %g) overlaps %q (end %g)",
					lane, spans[i].Task, spans[i].Start,
					spans[i-1].Task, spans[i-1].End)
			}
		}
	}
	return nil
}

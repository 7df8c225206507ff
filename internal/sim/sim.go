// Package sim is a discrete-event simulator for heterogeneous
// CPU/GPU/I/O pipelines. It executes a partially ordered set of tasks on
// FIFO lanes that behave like CUDA streams: each lane runs its tasks in
// issue order, one at a time, starting a task as soon as the lane is
// free and every dependency has finished.
//
// FIFO lanes are the essential modeling choice: they reproduce the
// head-of-line blocking that distinguishes the paper's schedules in
// Fig. 6 — an unpaged whole-layer weight transfer issued on the HtoD
// lane blocks the hidden-state transfer queued behind it, stalling the
// GPU, exactly the bubble CGOPipe's weight paging removes.
package sim

import (
	"fmt"
	"sort"
)

// Lane is one serially-executing resource.
type Lane int

// The five lanes of the paper's pipeline (§4.1 and A.1).
const (
	GPU  Lane = iota // GPU compute stream
	CPU              // CPU compute (attention) pool
	HtoD             // CPU->GPU DMA
	DtoH             // GPU->CPU DMA
	Pin              // CPU memory -> pinned staging copy engine
	Disk             // disk -> CPU read stream (the §C extension)
	numLanes
)

var laneNames = [...]string{"GPU", "CPU", "HtoD", "DtoH", "Pin", "Disk"}

func (l Lane) String() string {
	if l < 0 || int(l) >= len(laneNames) {
		return fmt.Sprintf("Lane(%d)", int(l))
	}
	return laneNames[l]
}

// Lanes returns all lanes in order.
func Lanes() []Lane { return []Lane{GPU, CPU, HtoD, DtoH, Pin, Disk} }

// Role says what a task does within the schedule that emitted it. The
// simulator does not interpret it; package schedule defines the values.
type Role uint8

// Task is one unit of work bound to a lane.
type Task struct {
	// ID must be unique and usable as a dependency reference.
	ID int
	// Name labels the task in errors, e.g. "warm-up"; a task without one
	// is labelled by its kind and coordinates (String).
	Name string
	// Kind groups tasks for utilization breakdowns, e.g. "weights".
	Kind string
	// Role, Layer and MB are the task's coordinates in its schedule: an
	// executor binds work by them, and a measured span joins a modelled
	// one on them. Carried into the spans untouched.
	Role      Role
	Layer, MB int
	Lane      Lane
	// Duration in seconds; zero-duration tasks are allowed (barriers).
	Duration float64
	// Deps lists task IDs that must finish before this task starts.
	Deps []int
}

// String is the task's label: its Name, or "kind(layer,mb)" for a task
// a schedule builder emitted without one (rendered only when asked for,
// so building a graph formats nothing).
func (t Task) String() string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("%s(%d,%d)", t.Kind, t.Layer, t.MB)
}

// Span is an executed task with its scheduled interval.
type Span struct {
	Task       Task
	Start, End float64
}

// Result is a completed simulation.
type Result struct {
	// Makespan is the end time of the last task.
	Makespan float64
	// Spans holds every task's interval, indexed by position in the
	// input slice.
	Spans []Span
	// ByLane groups spans per lane in execution order.
	ByLane map[Lane][]Span
}

// BusyTime returns the total busy time of a lane.
func (r Result) BusyTime(l Lane) float64 {
	var t float64
	for _, s := range r.ByLane[l] {
		t += s.End - s.Start
	}
	return t
}

// Utilization returns busy/makespan for a lane, in [0,1].
func (r Result) Utilization(l Lane) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return r.BusyTime(l) / r.Makespan
}

// BubbleTime returns the idle time of a lane between its first and last
// task — the pipeline bubbles of Fig. 6.
func (r Result) BubbleTime(l Lane) float64 {
	spans := r.ByLane[l]
	if len(spans) == 0 {
		return 0
	}
	var busy float64
	for _, s := range spans {
		busy += s.End - s.Start
	}
	return (spans[len(spans)-1].End - spans[0].Start) - busy
}

// KindTime sums busy time per task kind across all lanes.
func (r Result) KindTime() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range r.Spans {
		out[s.Task.Kind] += s.End - s.Start
	}
	return out
}

// Run simulates the tasks and returns their schedule. Tasks execute on
// their lane in slice order (issue order). It returns an error on
// duplicate or unknown IDs, negative durations, or deadlock (a
// dependency cycle, or cross-lane dependencies that contradict issue
// order).
func Run(tasks []Task) (Result, error) {
	n := len(tasks)
	res := Result{ByLane: make(map[Lane][]Span)}
	if n == 0 {
		return res, nil
	}

	byID := make(map[int]int, n) // task ID -> index
	for i, t := range tasks {
		if t.Duration < 0 {
			return res, fmt.Errorf("sim: task %q has negative duration", t)
		}
		if t.Lane < 0 || t.Lane >= numLanes {
			return res, fmt.Errorf("sim: task %q has invalid lane %d", t, int(t.Lane))
		}
		if _, dup := byID[t.ID]; dup {
			return res, fmt.Errorf("sim: duplicate task ID %d (%q)", t.ID, t)
		}
		byID[t.ID] = i
	}
	for _, t := range tasks {
		for _, d := range t.Deps {
			if _, ok := byID[d]; !ok {
				return res, fmt.Errorf("sim: task %q depends on unknown ID %d", t, d)
			}
		}
	}

	// Per-lane FIFO queues in issue order.
	queues := make([][]int, numLanes)
	for i, t := range tasks {
		queues[t.Lane] = append(queues[t.Lane], i)
	}
	heads := make([]int, numLanes) // next queue position per lane
	laneFree := make([]float64, numLanes)
	end := make([]float64, n) // end time per task; -1 = not done
	for i := range end {
		end[i] = -1
	}
	res.Spans = make([]Span, n)

	remaining := n
	for remaining > 0 {
		progressed := false
		for l := Lane(0); l < numLanes; l++ {
			for heads[l] < len(queues[l]) {
				idx := queues[l][heads[l]]
				t := tasks[idx]
				ready := true
				start := laneFree[l]
				for _, d := range t.Deps {
					di := byID[d]
					if end[di] < 0 {
						ready = false
						break
					}
					if end[di] > start {
						start = end[di]
					}
				}
				if !ready {
					break // FIFO: head blocks the lane
				}
				fin := start + t.Duration
				end[idx] = fin
				laneFree[l] = fin
				res.Spans[idx] = Span{Task: t, Start: start, End: fin}
				heads[l]++
				remaining--
				progressed = true
				if fin > res.Makespan {
					res.Makespan = fin
				}
			}
		}
		if !progressed {
			return res, fmt.Errorf("sim: deadlock with %d tasks unscheduled (first: %q)",
				remaining, firstUnscheduled(tasks, end))
		}
	}

	for _, s := range res.Spans {
		res.ByLane[s.Task.Lane] = append(res.ByLane[s.Task.Lane], s)
	}
	for l := range res.ByLane {
		spans := res.ByLane[l]
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	}
	return res, nil
}

func firstUnscheduled(tasks []Task, end []float64) string {
	for i, t := range tasks {
		if end[i] < 0 {
			return t.String()
		}
	}
	return ""
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the tracer's epoch. Parent is the id of the span that caused
// it (0 for a root); spans of one request share Request.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Request int    `json:"request,omitempty"`
	Self    int64  `json:"self_ns"`
}

// statSample is a reading of the server's counters on the span clock,
// so ratios sit beside the spans they explain.
type statSample struct {
	At              int64 `json:"at_ns"`
	Waves           int   `json:"waves"`
	Queued          int   `json:"queued_requests"`
	ExpertHits      int64 `json:"expert_hits"`
	ExpertMisses    int64 `json:"expert_misses"`
	PrefixHitTokens int   `json:"prefix_hit_tokens"`
}

// tracer keeps spans and samples in memory until the run ends. A nil
// tracer records nothing, so the untraced run shares the code path.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	samples []statSample
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its id for children to name.
func (t *tracer) add(name string, parent, request int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: request,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// finish moves the end of a span that was added before its children.
func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

func (t *tracer) sample(s statSample) {
	t.mu.Lock()
	t.samples = append(t.samples, s)
	t.mu.Unlock()
}

// selfTimes fills every span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// counted once, and a child reaching outside its parent only counts
// for the part inside.
func selfTimes(spans []span) {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], iv{lo, hi})
			}
		}
	}
	for i := range spans {
		ivs := children[spans[i].ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = spans[i].Start
		for _, c := range ivs {
			if c.hi <= reach {
				continue
			}
			covered += c.hi - max(c.lo, reach)
			reach = c.hi
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
}

// write stores the trace as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	doc := struct {
		Spans   []span       `json:"spans"`
		Samples []statSample `json:"samples"`
	}{t.spans, t.samples}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// addRequests turns the client's records into spans: per request a
// `request` span from due to done with children `ttft` (due to first
// token) and `decode` (first to last token).
func (t *tracer) addRequests(recs []*record, start time.Time, parent int) {
	for _, r := range recs {
		id := t.add("request", parent, r.req.ID, start.Add(r.due), start.Add(r.done))
		if len(r.tokens) == 0 {
			continue
		}
		t.add("ttft", id, r.req.ID, start.Add(r.due), start.Add(r.first))
		t.add("decode", id, r.req.ID, start.Add(r.first), start.Add(r.last))
	}
}

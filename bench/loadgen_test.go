package main

import (
	"errors"
	"testing"
	"time"

	"moelightning"
)

// fakeStream is a request that answers at once with n tokens.
type fakeStream struct{ ch chan moelightning.Token }

func newFakeStream(n int) fakeStream {
	ch := make(chan moelightning.Token, n)
	for i := 0; i < n; i++ {
		ch <- moelightning.Token{Index: i, ID: i}
	}
	close(ch)
	return fakeStream{ch}
}

func (f fakeStream) Tokens() <-chan moelightning.Token { return f.ch }
func (f fakeStream) Wait() ([]int, error)              { return nil, nil }

// A submit call that stalls must show up as time to first token of the
// requests that were due while it stalled: the one dispatcher sends them
// late, and they are timed from when they were due, not from when they
// were sent.
func TestStalledSubmitDelaysLaterRequests(t *testing.T) {
	const (
		gap     = 10 * time.Millisecond
		stall   = 300 * time.Millisecond
		stalled = 2 // index of the request whose submit blocks
	)
	sched := make([]arrival, 8)
	for i := range sched {
		sched[i] = arrival{due: time.Duration(i) * gap, genRequest: genRequest{req: moelightning.Request{ID: i + 1, GenLen: 3}}}
	}
	submit := func(g genRequest) (stream, error) {
		if g.req.ID == stalled+1 {
			time.Sleep(stall)
		}
		return newFakeStream(g.req.GenLen), nil
	}
	recs := runOpen(submit, sched, time.Now())

	for i, r := range recs {
		if r.failed() {
			t.Fatalf("request %d failed: %v, %d tokens", i, r.err, len(r.tokens))
		}
		if i < stalled {
			continue
		}
		// Request i was due i*gap in; the stall ends no earlier than
		// stalled*gap + stall. Everything due before that waited for it.
		wait := stall - time.Duration(i-stalled)*gap
		if r.ttft() < wait {
			t.Errorf("request %d: ttft %v, want at least the %v it waited behind the stalled submit", i, r.ttft(), wait)
		}
		if i > stalled && r.sent-r.due < wait {
			t.Errorf("request %d: sent %v late, want at least %v reported as lateness", i, r.sent-r.due, wait)
		}
	}
	w := window{recs: recs, wall: time.Second}
	if c := w.client(); c.lateMax < ms(stall)-ms(gap) || c.ttftP50 < ms(stall)/2 {
		t.Errorf("window hides the stall: late max %.1f ms, ttft p50 %.1f ms", c.lateMax, c.ttftP50)
	}
}

func TestRefusedRequestCountsAsFailed(t *testing.T) {
	sched := []arrival{
		{genRequest: genRequest{req: moelightning.Request{ID: 1, GenLen: 2}}},
		{genRequest: genRequest{req: moelightning.Request{ID: 2, GenLen: 2}}},
	}
	submit := func(g genRequest) (stream, error) {
		if g.req.ID == 1 {
			return nil, errors.New("refused")
		}
		return newFakeStream(g.req.GenLen), nil
	}
	recs := runOpen(submit, sched, time.Now())
	if !recs[0].failed() || recs[0].met() {
		t.Error("a refused request must count as failed and as missing its limits")
	}
	if recs[1].failed() || !recs[1].met() {
		t.Error("a completed request without limits meets them")
	}
}

func TestLimitsAndMismatch(t *testing.T) {
	slo := moelightning.SLO{TTFT: ttftLimit, TPOT: tpotLimit}
	ok := func() *record {
		return &record{genRequest: genRequest{req: moelightning.Request{GenLen: 3}, slo: slo},
			due: 0, first: 100 * time.Millisecond, last: 160 * time.Millisecond, tokens: []int{1, 2, 3}}
	}
	if r := ok(); !r.met() || r.tpot() != 30*time.Millisecond {
		t.Errorf("in-limit request: met %v tpot %v", r.met(), r.tpot())
	}
	slow := ok()
	slow.first, slow.last = 600*time.Millisecond, 660*time.Millisecond
	gappy := ok()
	gappy.last = 300 * time.Millisecond
	short := ok()
	short.tokens = short.tokens[:2]
	wrong := ok()
	wrong.mismatch = true
	for name, r := range map[string]*record{"late first token": slow, "slow tokens": gappy, "short output": short, "reference mismatch": wrong} {
		if r.met() {
			t.Errorf("%s: counted as meeting its limits", name)
		}
	}
	if slow.failed() || gappy.failed() || !short.failed() || !wrong.failed() {
		t.Error("only the short and the mismatching request are failures")
	}
}

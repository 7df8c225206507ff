package main

import (
	"context"
	"sync"
	"time"

	"moelightning"
)

// stream is what the load generator needs of a submitted request;
// *moelightning.Handle is the one real implementation, the open-loop
// fidelity test substitutes a fake.
type stream interface {
	Tokens() <-chan moelightning.Token
	Wait() ([]int, error)
}

// submitFunc sends one request with its limits.
type submitFunc func(g genRequest) (stream, error)

// record is one request as the client saw it. Times are offsets from
// the window start on the monotonic clock.
type record struct {
	genRequest
	due, sent   time.Duration
	first, last time.Duration // first and last token; zero without tokens
	done        time.Duration
	tokens      []int
	err         error
	mismatch    bool // set by the reference check
}

func (r *record) ttft() time.Duration { return r.first - r.due }

// tpot is the mean gap between tokens after the first.
func (r *record) tpot() time.Duration {
	if len(r.tokens) < 2 {
		return 0
	}
	return (r.last - r.first) / time.Duration(len(r.tokens)-1)
}

// failed: refused, ended with an error, came back short, or differs
// from the reference.
func (r *record) failed() bool {
	return r.err != nil || len(r.tokens) != r.req.GenLen || r.mismatch
}

// met reports whether the request met both of its limits. A failed
// request misses them; a request sent without limits meets them by
// completing.
func (r *record) met() bool {
	if r.failed() {
		return false
	}
	return (r.slo.TTFT == 0 || r.ttft() <= r.slo.TTFT) && (r.slo.TPOT == 0 || r.tpot() <= r.slo.TPOT)
}

// follow reads a request's token stream to the end, stamping the first
// and last token and completion. It parks on the channel, so a reader
// is not load.
func follow(rec *record, h stream, start time.Time) {
	for tok := range h.Tokens() {
		now := time.Since(start)
		if len(rec.tokens) == 0 {
			rec.first = now
		}
		rec.last = now
		rec.tokens = append(rec.tokens, tok.ID)
	}
	_, rec.err = h.Wait()
	rec.done = time.Since(start)
}

// runOpen plays an arrival schedule open loop: one dispatcher sleeps to
// each due time and submits, whatever the server is doing; a reader
// goroutine per request follows its tokens. Every request is timed
// from the instant it was due, so a stall in submit shows up as TTFT of
// the requests behind it. It returns when every request has finished.
func runOpen(submit submitFunc, sched []arrival, start time.Time) []*record {
	recs := make([]*record, len(sched))
	var wg sync.WaitGroup
	for i, a := range sched {
		rec := &record{genRequest: a.genRequest, due: a.due}
		recs[i] = rec
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		rec.sent = time.Since(start)
		h, err := submit(a.genRequest)
		if err != nil {
			rec.err = err
			rec.done = time.Since(start)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			follow(rec, h, start)
		}()
	}
	wg.Wait()
	return recs
}

// runClosed sends one closed batch and waits for all of it. Every
// request is due at the instant the batch is submitted.
func runClosed(srv *moelightning.Server, batch []genRequest, start time.Time) ([]*record, error) {
	reqs := make([]moelightning.Request, len(batch))
	for i, g := range batch {
		reqs[i] = g.req
	}
	due := time.Since(start)
	handles, err := srv.SubmitBatch(context.Background(), reqs)
	if err != nil {
		return nil, err
	}
	recs := make([]*record, len(batch))
	var wg sync.WaitGroup
	for i, h := range handles {
		recs[i] = &record{genRequest: batch[i], due: due, sent: due}
		wg.Add(1)
		go func(rec *record, h *moelightning.Handle) {
			defer wg.Done()
			follow(rec, h, start)
		}(recs[i], h)
	}
	wg.Wait()
	return recs, nil
}

// serverSubmit adapts the public server to submitFunc.
func serverSubmit(srv *moelightning.Server) submitFunc {
	return func(g genRequest) (stream, error) {
		h, err := srv.SubmitSLO(context.Background(), g.req, g.slo)
		if err != nil {
			return nil, err
		}
		return h, nil
	}
}

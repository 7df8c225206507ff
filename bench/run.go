package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"moelightning"
)

// An end-to-end run sets a server up setupReps times — fewer once the
// set-ups so far have taken setupBudget, so a slow host does not spend
// the run on them. The reported setup_s is the median, and the last
// server serves the window.
const (
	setupReps   = 3
	setupBudget = 4 * time.Second
)

// setUp builds a server and serves the untimed warm-up batch; the time
// for both, on the granted clock (see cpuTimes), is the workload's
// set-up cost.
func setUp(s spec, seed int64) (*moelightning.Server, time.Duration, error) {
	t0, c0 := time.Now(), readCPUTimes()
	srv, err := moelightning.NewServer(s.serverConfig())
	if err != nil {
		return nil, 0, err
	}
	handles, err := srv.SubmitBatch(context.Background(), warmup(seed))
	if err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			srv.Close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return srv, granted(time.Since(t0), c0), nil
}

// granted scales a wall-clock duration that began at reading c0 by the
// share of the CPU time wanted since then that the host granted.
func granted(wall time.Duration, c0 cpuTimes) time.Duration {
	return time.Duration(float64(wall) * readCPUTimes().grantedShare(c0))
}

// tearDown closes a server and returns its memory, so the next set-up
// (and the resident-set high-water mark) starts from the same place.
func tearDown(srv *moelightning.Server) error {
	err := srv.Close()
	runtime.GC()
	debug.FreeOSMemory()
	return err
}

// engineStats is the part of ServerStats the layer metrics use, as
// plain totals so that a window is the difference of two readings.
type engineStats struct {
	submitted, completed, failed, deferred, waves int
	genTokens, prefillTokens, prefixHitTokens     int
	busy, prefill                                 time.Duration
	cowCopies, weightBytes, hits, misses          int64
}

func readStats(srv *moelightning.Server) engineStats {
	st := srv.Stats()
	e := engineStats{
		submitted: st.Submitted, completed: st.Completed, failed: st.Failed,
		deferred: st.Deferred, waves: st.Waves,
		genTokens: st.GeneratedTokens, prefillTokens: st.PrefillTokens, prefixHitTokens: st.PrefixHitTokens,
		cowCopies: st.CowCopies, weightBytes: st.WeightBytesFetched, hits: st.ExpertHits, misses: st.ExpertMisses,
	}
	// The server publishes rates; the times behind them are tokens/rate.
	if st.TokensPerSecond > 0 {
		e.busy = time.Duration(float64(st.GeneratedTokens) / st.TokensPerSecond * float64(time.Second))
	}
	if st.PrefillTokensPerSecond > 0 {
		e.prefill = time.Duration(float64(st.PrefillTokens) / st.PrefillTokensPerSecond * float64(time.Second))
	}
	return e
}

func (a engineStats) sub(b engineStats) engineStats {
	return engineStats{
		submitted: a.submitted - b.submitted, completed: a.completed - b.completed, failed: a.failed - b.failed,
		deferred: a.deferred - b.deferred, waves: a.waves - b.waves,
		genTokens: a.genTokens - b.genTokens, prefillTokens: a.prefillTokens - b.prefillTokens,
		prefixHitTokens: a.prefixHitTokens - b.prefixHitTokens,
		busy:            a.busy - b.busy, prefill: a.prefill - b.prefill,
		cowCopies: a.cowCopies - b.cowCopies, weightBytes: a.weightBytes - b.weightBytes,
		hits: a.hits - b.hits, misses: a.misses - b.misses,
	}
}

// window is one timed stretch of load against one warmed-up server.
type window struct {
	phase  string
	traced bool
	rps    float64 // 0 for closed batches
	start  time.Time
	wall   time.Duration
	recs   []*record
	rounds []round // the closed batches
	// share is the share of wanted CPU time the host granted during the
	// window; cpu is the process's own CPU time in it.
	share float64
	cpu   time.Duration
	// rss is the resident-set high-water mark after a fixed amount of
	// work — the first closed batch, or every request of an open phase —
	// so that it does not grow with how many batches a faster program
	// fits into the window before the first garbage collection.
	rss    float64
	engine engineStats
	mem    memDelta
}

// round is one closed batch: tokens generated, wall time from submit
// to the last handle done, and the same on the granted clock.
type round struct {
	tokens        int
	wall, granted time.Duration
}

// memDelta is what the Go runtime did during a window.
type memDelta struct {
	mallocs   uint64
	gcPause   time.Duration
	heapInuse uint64 // at the end
}

// runWindow offers the workload's load to srv for about dur and waits
// for everything sent to finish. With a tracer it also samples the
// server's counters every 50 ms and records the requests as spans.
func (s spec) runWindow(srv *moelightning.Server, ph phaseSpec, seed int64, stream int, dur time.Duration, tr *tracer) (window, error) {
	w := window{phase: "closed", traced: tr != nil}
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
		defer startSampler(srv, tr)()
	}
	statsBefore := readStats(srv)
	cpu0, proc0 := readCPUTimes(), processCPU()
	w.start = time.Now()

	err := s.offer(srv, &w, ph, seed, stream, dur)
	w.wall = time.Since(w.start)
	w.share, w.cpu = readCPUTimes().grantedShare(cpu0), processCPU()-proc0
	w.engine = readStats(srv).sub(statsBefore)
	if err != nil {
		return w, err
	}
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		w.mem = memDelta{
			mallocs:   after.Mallocs - before.Mallocs,
			gcPause:   time.Duration(after.PauseTotalNs - before.PauseTotalNs),
			heapInuse: after.HeapInuse,
		}
		root := tr.add("window."+w.phase, 0, 0, w.start, w.start.Add(w.wall))
		tr.addRequests(w.recs, w.start, root)
	}
	return w, nil
}

// offer sends the window's load and waits for it: one arrival schedule,
// or closed batches until dur.
func (s spec) offer(srv *moelightning.Server, w *window, ph phaseSpec, seed int64, stream int, dur time.Duration) error {
	if s.open {
		w.phase, w.rps = ph.name, ph.rps
		w.recs = runOpen(serverSubmit(srv), s.schedule(seed, stream, ph.rps, dur), w.start)
		w.rss = peakRSSMiB()
		return nil
	}
	rs := s.stream(seed, stream)
	// A new batch starts while it is expected to end nearer to dur than
	// the last one did, so the window centres on dur.
	var last time.Duration
	for len(w.rounds) == 0 || time.Since(w.start)+last/2 < dur {
		t0, c0 := time.Now(), readCPUTimes()
		recs, err := runClosed(srv, rs.take(s.roundSize), w.start)
		if err != nil {
			return err
		}
		last = time.Since(t0)
		rd := round{wall: last, granted: granted(last, c0)}
		for _, r := range recs {
			rd.tokens += len(r.tokens)
		}
		if len(w.rounds) == 0 {
			w.rss = peakRSSMiB()
		}
		w.rounds = append(w.rounds, rd)
		w.recs = append(w.recs, recs...)
	}
	return nil
}

// startSampler reads the server's counters every 50 ms onto the trace
// clock until the returned stop function is called.
func startSampler(srv *moelightning.Server, tr *tracer) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case now := <-tick.C:
				st := srv.Stats()
				tr.sample(statSample{At: now.Sub(tr.epoch).Nanoseconds(), Waves: st.Waves, Queued: st.QueuedRequests,
					ExpertHits: st.ExpertHits, ExpertMisses: st.ExpertMisses, PrefixHitTokens: st.PrefixHitTokens})
			}
		}
	}()
	return func() { close(quit); <-done }
}

// clientStats are the numbers the load generator's own clocks give for
// one window.
type clientStats struct {
	sent, failed      int
	genTokS           float64 // on the granted clock
	genTokSWall       float64
	cpuMsPerTok       float64
	ttftP50, ttftTail float64 // ms
	tailPct           float64 // the percentile ttftTail is
	ttftSamples       int
	metFrac           float64
	tpotP50, tpotP95  float64 // ms
	lateP95, lateMax  float64 // ms
	backlogMid        int     // requests outstanding at the middle arrival
	backlogEnd        int     // and at the last one
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (w window) client() clientStats {
	c := clientStats{sent: len(w.recs)}
	var ttft, tpot, late []float64
	met, tokens := 0, 0
	for _, r := range w.recs {
		late = append(late, ms(r.sent-r.due))
		if r.failed() {
			c.failed++
		}
		if r.met() {
			met++
		}
		tokens += len(r.tokens)
		if len(r.tokens) > 0 {
			ttft = append(ttft, ms(r.ttft()))
		}
		if len(r.tokens) > 1 {
			tpot = append(tpot, ms(r.tpot()))
		}
	}
	if c.sent == 0 {
		return c
	}
	// Closed batches: the median batch's rate, so one disturbed batch
	// does not move the result. Open loop: the arrival rate fixes tokens
	// per wall second, so the rate is over the server's busy (in-wave)
	// time.
	if len(w.rounds) > 0 {
		var wall, grant []float64
		for _, rd := range w.rounds {
			wall = append(wall, float64(rd.tokens)/rd.wall.Seconds())
			grant = append(grant, float64(rd.tokens)/rd.granted.Seconds())
		}
		c.genTokSWall, c.genTokS = median(wall), median(grant)
	} else {
		c.genTokSWall = ratio(float64(tokens), w.engine.busy.Seconds())
		c.genTokS = ratio(c.genTokSWall, w.share)
	}
	c.cpuMsPerTok = ratio(ms(w.cpu), float64(tokens))
	ttft, tpot, late = sorted(ttft), sorted(tpot), sorted(late)
	c.ttftSamples = len(ttft)
	c.tailPct = tailPercentile(len(ttft), 0.95)
	c.ttftP50, c.ttftTail = percentile(ttft, 0.5), percentile(ttft, c.tailPct)
	c.tpotP50, c.tpotP95 = percentile(tpot, 0.5), percentile(tpot, tailPercentile(len(tpot), 0.95))
	c.lateP95, c.lateMax = percentile(late, 0.95), late[len(late)-1]
	c.metFrac = float64(met) / float64(c.sent)
	c.backlogMid = w.outstandingAt(w.recs[len(w.recs)/2].due)
	c.backlogEnd = w.outstandingAt(w.recs[len(w.recs)-1].due)
	return c
}

// endToEnd names the end-to-end metrics of a window. Latency and the
// share of requests inside their limits are wall-clock numbers that a
// shared host moves by more than any bound (README.md, "Steal"); they
// are reported with the layer metrics, unbounded.
func (c clientStats) endToEnd(setupS, rssMiB float64) map[string]float64 {
	return map[string]float64{
		"gen_tok_s":      c.genTokS,
		"cpu_ms_per_tok": c.cpuMsPerTok,
		"setup_s":        setupS,
		"peak_rss_mb":    rssMiB,
	}
}

// outstandingAt counts the requests due by t and not finished by t.
func (w window) outstandingAt(t time.Duration) int {
	n := 0
	for _, r := range w.recs {
		if r.due <= t && r.done > t {
			n++
		}
	}
	return n
}

// phaseCount is the requests sent, succeeded and failed in one phase.
type phaseCount struct {
	Phase     string  `json:"phase"`
	Traced    bool    `json:"traced,omitempty"`
	RPS       float64 `json:"rps,omitempty"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
}

func (w window) count() phaseCount {
	pc := phaseCount{Phase: w.phase, Traced: w.traced, RPS: w.rps, Sent: len(w.recs)}
	for _, r := range w.recs {
		if r.failed() {
			pc.Failed++
		}
	}
	pc.Succeeded = pc.Sent - pc.Failed
	return pc
}

package main

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSameSeedSameRequests(t *testing.T) {
	for _, s := range specs {
		a := s.stream(7, streamTimed).take(64)
		b := s.stream(7, streamTimed).take(64)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew two different request lists", s.name)
		}
		c := s.stream(8, streamTimed).take(64)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 drew the same request list", s.name)
		}
		// Rounds are consecutive slices of one stream.
		rs := s.stream(7, streamTimed)
		if got := append(rs.take(24), rs.take(40)...); !reflect.DeepEqual(got, a) {
			t.Errorf("%s: taking 24 then 40 differs from taking 64", s.name)
		}
	}
}

func TestTightRunsTheDecodeRequests(t *testing.T) {
	decode, _ := findSpec("offline_decode")
	tight, _ := findSpec("offline_tight")
	if !reflect.DeepEqual(decode.stream(3, streamTimed).take(48), tight.stream(3, streamTimed).take(48)) {
		t.Error("offline_tight does not run offline_decode's request list")
	}
	if tight.serverConfig().ExpertResidencyBytes != int(benchModel().ExpertBlockBytes()) || !tight.tight {
		t.Error("offline_tight is not configured with one resident expert block")
	}
}

func TestRequestsFitTheirServer(t *testing.T) {
	for _, s := range specs {
		for _, g := range s.stream(1, streamTimed).take(500) {
			if g.req.PromptLen+g.req.GenLen > s.maxContext || g.req.GenLen > s.genLen || g.req.GenLen < 2 {
				t.Fatalf("%s: request %+v does not fit genLen %d / maxContext %d", s.name, g.req, s.genLen, s.maxContext)
			}
			if s.open != (g.slo.TTFT == ttftLimit && g.slo.TPOT == tpotLimit) {
				t.Fatalf("%s: request limits %+v on an open=%v workload", s.name, g.slo, s.open)
			}
		}
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	s, _ := findSpec("online_mix")
	a := s.schedule(5, streamTimed, 8, 10*time.Second)
	if b := s.schedule(5, streamTimed, 8, 10*time.Second); !reflect.DeepEqual(a, b) {
		t.Error("seed 5 drew two different schedules")
	}
	if c := s.schedule(6, streamTimed, 8, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Error("seeds 5 and 6 drew the same schedule")
	}
	if d := s.schedule(5, streamLadder, 8, 10*time.Second); reflect.DeepEqual(a, d) {
		t.Error("two streams of one seed drew the same schedule")
	}
	if len(a) != 80 {
		t.Fatalf("8 rps over 10 s scheduled %d arrivals, want 80", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].due < a[j].due }) {
		t.Error("schedule is not in due order")
	}
	ids := make(map[int]bool)
	cohorts := make(map[string]int)
	for _, ar := range a {
		if ar.due < 0 || ar.due >= 10*time.Second {
			t.Errorf("arrival due at %v, outside the phase", ar.due)
		}
		ids[ar.req.ID] = true
		cohorts[ar.cohort]++
	}
	if len(ids) != len(a) {
		t.Errorf("%d distinct ids over %d arrivals", len(ids), len(a))
	}
	// The deck deals exact shares every ten requests.
	if cohorts["chat"] != 40 || cohorts["agentic"] != 24 || cohorts["rag"] != 16 {
		t.Errorf("cohort counts %v, want chat 40 agentic 24 rag 16", cohorts)
	}
}

func TestSharedPromptsAreSharedWithinASeedOnly(t *testing.T) {
	s, _ := findSpec("online_mix")
	prefixes := func(seed int64) map[string]int {
		out := make(map[string]int)
		for _, g := range s.stream(seed, streamTimed).take(50) {
			if g.cohort == "rag" {
				if g.req.PrefixID != 0 {
					t.Fatalf("rag request shares prefix %d", g.req.PrefixID)
				}
				continue
			}
			if g.req.PrefixLen != 64 || g.req.PrefixID == 0 {
				t.Fatalf("%s request without its 64-token shared prompt: %+v", g.cohort, g.req)
			}
			if id, seen := out[g.cohort]; seen && id != g.req.PrefixID {
				t.Fatalf("%s requests of one seed name prefixes %d and %d", g.cohort, id, g.req.PrefixID)
			}
			out[g.cohort] = g.req.PrefixID
		}
		return out
	}
	a, b := prefixes(1), prefixes(2)
	if a["chat"] == a["agentic"] {
		t.Error("chat and agentic share one system prompt")
	}
	if a["chat"] == b["chat"] {
		t.Error("two seeds share a system prompt")
	}
}

func TestWarmupIsDisjointFromTheTimedStream(t *testing.T) {
	s, _ := findSpec("offline_decode")
	timed := make(map[int]bool)
	for _, g := range s.stream(4, streamTimed).take(5000) {
		timed[g.req.ID] = true
	}
	w := warmup(4)
	if len(w) != warmupRequests {
		t.Fatalf("warm-up has %d requests, want %d", len(w), warmupRequests)
	}
	for _, r := range w {
		if timed[r.ID] {
			t.Fatalf("warm-up request %d is also a timed request", r.ID)
		}
	}
}

package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"moelightning/internal/engine"
	"moelightning/internal/memory"
	"moelightning/internal/workload"
)

// benchWeights rebuilds the server's weights — same model, same seed —
// for the code that runs beside the server: the reference check and the
// driven wave. Built once per process.
var benchWeights = sync.OnceValues(func() (*engine.Weights, error) {
	m := benchModel()
	floats := m.Layers*engine.NewLayout(m).LayerFloats() + 1<<20
	return engine.NewRandomWeights(memory.NewArena("bench-weights", floats), m, weightSeed)
})

// The reference decodes token by token, so a check of the whole sample
// can take longer than the timed window on a slow host. It stops early
// once checkBudget has passed and checkFloor requests are done.
const (
	checkBudget = 4 * time.Second
	checkFloor  = 2
)

// referenceCheck re-derives a seeded sample of the completed requests
// through the sequential oracle, in the workload's KV dtype, and marks
// every record whose tokens differ. It returns how many it checked and
// how many differed. Requests that already failed are not sampled: they
// count as failed without it.
func referenceCheck(s spec, seed int64, recs []*record) (checked, mismatches int, err error) {
	var ok []*record
	for _, r := range recs {
		if !r.failed() {
			ok = append(ok, r)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ok), func(i, j int) { ok[i], ok[j] = ok[j], ok[i] })
	if len(ok) > s.checkSample {
		ok = ok[:s.checkSample]
	}
	w, err := benchWeights()
	if err != nil {
		return 0, 0, err
	}
	m := benchModel()
	cacheFloats := s.maxContext*m.Layers*2*m.KVDim() + 1<<16
	begin := time.Now()
	for _, r := range ok {
		if checked >= checkFloor && time.Since(begin) > checkBudget {
			break
		}
		ref, err := engine.NewReferenceKV(w, memory.NewArena("bench-ref", cacheFloats), 1, s.maxContext, s.kv)
		if err != nil {
			return checked, mismatches, err
		}
		want, err := ref.Generate(engine.PromptsFromRequests([]workload.Request{r.req}, m.VocabSize), r.req.GenLen)
		if err != nil {
			return checked, mismatches, fmt.Errorf("reference: %w", err)
		}
		checked++
		if !slices.Equal(r.tokens, want[0]) {
			r.mismatch = true
			mismatches++
		}
	}
	return checked, mismatches, nil
}

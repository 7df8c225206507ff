package engine

// stageLayer stages one layer for a benchmark baseline through the
// engine's own primeLayer path — shared region synchronously into the
// double buffer, predicted expert set into the pager. It replaces
// the manual per-bench layer-load loops so every baseline exercises
// exactly the load path the prompt phase's first pass uses.
func stageLayer(p *Pipeline, v int) error { return p.primeLayer(v) }

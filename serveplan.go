package moelightning

import (
	"fmt"

	"moelightning/internal/engine"
)

// ServerConfigForPolicy maps an optimizer policy onto a ready-to-run
// ServerConfig for the functional engine: the policy's micro-batch
// shape becomes the wave shape, the workload's prompt/generation
// lengths size the context bound (engine.ContextBound), which is also
// each sequence's share of the Alg. 2 KV budget, so the batcher admits
// a whole micro-batch of the workload's longest requests. The wave
// length is the workload's GenLen, which its requests carry too, so
// each generates the full wave the optimizer's estimate charges. The
// result is what `policysearch` prints.
func ServerConfigForPolicy(m ModelConfig, p Policy, w WorkloadConfig, kv KVDtype) ServerConfig {
	prompt := w.MaxPrompt
	if prompt <= 0 {
		prompt = w.AvgPrompt
	}
	numMB := p.MicroBatches()
	if numMB <= 0 {
		numMB = 1
	}
	return ServerConfig{
		Model:           m,
		MicroBatchSize:  p.Mu,
		NumMicroBatches: numMB,
		GenLen:          w.GenLen,
		MaxContext:      engine.ContextBound(prompt, w.GenLen),
		KVDtype:         kv,
	}
}

// FormatServerConfig renders the serving knobs of a ServerConfig as a
// copy-pasteable Go literal (the Model field is elided; pair it with
// the preset you searched for).
func FormatServerConfig(c ServerConfig) string {
	return fmt.Sprintf(
		"moelightning.ServerConfig{Model: <model>, MicroBatchSize: %d, NumMicroBatches: %d, GenLen: %d, MaxContext: %d, KVDtype: %s}",
		c.MicroBatchSize, c.NumMicroBatches, c.GenLen, c.MaxContext,
		kvdtypeLiteral(c.KVDtype))
}

func kvdtypeLiteral(kv KVDtype) string {
	if kv == KVInt8 {
		return "moelightning.KVInt8"
	}
	return "moelightning.KVFloat32"
}

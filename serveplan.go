package moelightning

import (
	"fmt"

	"moelightning/internal/engine"
)

// ServerConfigForPolicy maps an optimizer policy onto a ready-to-run
// ServerConfig for the functional engine: the policy's micro-batch
// shape becomes the wave shape, the workload's prompt/generation
// lengths size the context bound (engine.ContextBound), and the KV budget is
// denominated so the Alg. 2 batcher admits the whole batch at the
// chosen codec. The result is what `policysearch` prints and what the
// calibration scenarios serve under.
func ServerConfigForPolicy(m ModelConfig, p Policy, w WorkloadConfig, kv KVDtype) ServerConfig {
	prompt := w.MaxPrompt
	if prompt <= 0 {
		prompt = w.AvgPrompt
	}
	maxContext := engine.ContextBound(prompt, w.GenLen)
	numMB := p.MicroBatches()
	if numMB <= 0 {
		numMB = 1
	}
	return ServerConfig{
		Model:           m,
		MicroBatchSize:  p.Mu,
		NumMicroBatches: numMB,
		GenLen:          w.GenLen,
		MaxContext:      maxContext,
		CacheTokens:     2 * p.Mu * maxContext,
		KVDtype:         kv,
		// The optimizer's throughput estimate assumes the closed-batch
		// schedule: every admitted request runs the full wave length.
		FixedGenLen: true,
	}
}

// FormatServerConfig renders the serving knobs of a ServerConfig as a
// copy-pasteable Go literal (the Model field is elided; pair it with
// the preset you searched for).
func FormatServerConfig(c ServerConfig) string {
	return fmt.Sprintf(
		"moelightning.ServerConfig{Model: <model>, MicroBatchSize: %d, NumMicroBatches: %d, GenLen: %d, MaxContext: %d, CacheTokens: %d, KVDtype: %s, FixedGenLen: %v}",
		c.MicroBatchSize, c.NumMicroBatches, c.GenLen, c.MaxContext, c.CacheTokens,
		kvdtypeLiteral(c.KVDtype), c.FixedGenLen)
}

func kvdtypeLiteral(kv KVDtype) string {
	if kv == KVInt8 {
		return "moelightning.KVInt8"
	}
	return "moelightning.KVFloat32"
}

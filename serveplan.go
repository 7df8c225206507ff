package moelightning

import (
	"fmt"

	"moelightning/internal/engine"
)

// ServerConfigForPolicy maps an optimizer policy onto a ready-to-run
// ServerConfig for the functional engine: engine.ServeConfigForPolicy's
// serve shape — the policy's micro-batch shape as the wave shape, the
// context bound sized for the workload's longest request, the wave
// length its GenLen — flattened onto the public fields. Calibration
// measures the same shape. The result is what `policysearch` prints.
func ServerConfigForPolicy(m ModelConfig, p Policy, w WorkloadConfig, kv KVDtype) ServerConfig {
	c := engine.ServeConfigForPolicy(p, w, kv)
	return ServerConfig{
		Model:           m,
		MicroBatchSize:  c.MicroBatch,
		NumMicroBatches: c.NumMicroBatches,
		GenLen:          c.GenLen,
		MaxContext:      c.MaxContext,
		KVDtype:         c.KVDtype,
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

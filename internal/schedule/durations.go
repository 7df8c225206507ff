package schedule

import (
	"moelightning/internal/perfmodel"
)

// PlanFor derives the simulation plan for a policy at a given context:
// the model's layer count, the policy's micro-batch count, and one
// duration per task copied from the performance model's price list
// (perfmodel.TaskCosts). Post-attention carries the tensor-parallel
// all-reduce, and a page is a MicroBatches-th of the layer's transfer.
func PlanFor(e *perfmodel.Estimator, p perfmodel.Policy, context int) Plan {
	c := e.TaskCosts(p, context)
	nb := p.MicroBatches()
	pages := float64(nb)
	return Plan{
		Layers:       e.In.Model.Layers,
		MicroBatches: nb,
		D: Durations{
			PreAttn:  c.PreAttn,
			PostAttn: c.PostAttn + c.AllReduce,
			CPUAttn:  c.CPUAttn,
			GPUAttn:  c.GPUAttn,

			QKVOff:     c.QKVOff,
			HiddenLoad: c.HiddenLoad,
			KVLoad:     c.KVLoad,
			KVStore:    c.KVStore,

			WeightWhole: c.Weights,
			WeightPage:  c.Weights / pages,
			PinWhole:    c.Pin,
			PinPage:     c.Pin / pages,
			DiskWhole:   c.Disk,
			DiskPage:    c.Disk / pages,
		},
	}
}

// StrategyFor maps a policy to the schedule MoE-Lightning would run:
// CGOPipe when attention is on CPU, S4 otherwise (§4.2: "CGOPipe is
// primarily designed for A_g = 0 and when A_g = 1, MoE-Lightning adopts
// S4").
func StrategyFor(p perfmodel.Policy) Strategy {
	if p.GPUAttn {
		return GPUAttn
	}
	return CGOPipe
}

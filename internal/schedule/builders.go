package schedule

import "moelightning/internal/sim"

// buildLookahead emits the CGOPipe-family schedules: CPU attention for
// slot g+ahead launched while the GPU works on slot g (Alg. 1 uses
// ahead=2; S3 degrades to ahead=1). paged selects page-granular weight
// transfers interleaved with hidden-state loads (CGOPipe) versus one
// monolithic transfer per layer (S2/S3).
//
// Micro-batch slots are numbered globally: slot g = (layer-1)*MB + j.
// Layer 1's weights are resident; pages for layers 2..L+1 stream during
// the step (L+1 is the next step's first layer, so steady-state work is
// one full pass).
//
// The paged schedule moves weights through two buffers of two slots
// each, chosen by layer parity, and emits the two reuse hazards as
// dependencies so that every executor of the graph — the simulator and
// the engine's lanes — honours them:
//
//   - page(l+1, 1) waits for post(l-1, last): layer l+1 lands in the GPU
//     slot layer l-1 computed from, and the later pages follow the first
//     on the HtoD lane. Lane order implies it at look-ahead 1 (the page
//     follows loadh(l, 1), which needs pre(l, 1), which the GPU lane
//     runs after post(l-1, last)) and not from 2 up, where pre(l, 1)
//     runs before post(l-1, last).
//   - pin(l+1, j) waits for page(l-1, j): it overwrites the pinned slot
//     that page ships from, and nothing else holds the Pin lane back.
//
// Neither binds at the paper's settings: every figure and table prints
// the makespans it printed without them.
//
// With Plan.LayerFFN the slots of a layer end in one ffn(l) task that
// every pre(l+1, ·) waits for, so the look-ahead runs inside a layer
// only: per layer the issue order is pre(l, 1..ahead), then for each j
// loadh(l, j), the layer-l+1 weight transfer, post(l, j) and — while
// j+ahead <= MB — the chain of slot (l, j+ahead), then ffn(l). Launching
// pre(l+1, 1) ahead of post(l, last), as the paper's order does, would
// put a task that waits for ffn(l) in front of the posts ffn(l) waits
// for, on the same in-order lane: a deadlock. ffn(l) reads expert
// weights and activations, no slot of either weight buffer, so both
// hazards above are unchanged (the first is again implied by lane
// order, at any look-ahead: pre(l, 1) now follows ffn(l-1), which
// follows post(l-1, last)).
func buildLookahead(p Plan, ahead int, paged bool) []sim.Task {
	if p.Lookahead > 0 {
		ahead = p.Lookahead
	}
	if ahead > p.MicroBatches {
		ahead = p.MicroBatches // avoid head-of-line deadlock at tiny MB counts
	}
	attnPages := min(max(p.AttnPages, 1), p.MicroBatches)
	d := p.D
	total := p.slots()
	b := builder{p: p, tasks: make([]sim.Task, 0, 8*total)}

	// preSlot emits the pre-attention chain (PreAttn -> QKV offload ->
	// CPU attention) for slot g, plus the pinned-staging copy of the
	// weight page that will ship at slot g.
	preSlot := func(g int) {
		l, j := p.slot(g)
		var deps []int
		if l > 1 {
			// Hidden states come from the previous layer's post-attention
			// (its layer-wide expert FFN under LayerFFN);
			// the QKV projection reads the layer's leading pages (the
			// attention projections lead the page order).
			weights := p.id(RoleWFull, l, 0)
			if paged {
				weights = p.id(RolePage, l, attnPages)
			}
			hidden := p.id(RolePost, l-1, j)
			if p.LayerFFN {
				hidden = p.id(RoleFFN, l-1, 0)
			}
			deps = []int{hidden, weights}
		}
		b.add(RolePre, l, j, sim.GPU, d.PreAttn, "pre-attn", deps...)
		b.add(RoleQKV, l, j, sim.DtoH, d.QKVOff, "qkv-offload", p.id(RolePre, l, j))
		b.add(RoleCPUAttn, l, j, sim.CPU, d.CPUAttn, "cpu-attn", p.id(RoleQKV, l, j))
		if paged {
			// Stage the page for layer l+1 that ships at this slot; the
			// disk-resident share must land in CPU memory first.
			var pinDeps []int
			if d.DiskPage > 0 {
				b.add(RoleDisk, l+1, j, sim.Disk, d.DiskPage, "disk-read")
				pinDeps = append(pinDeps, p.id(RoleDisk, l+1, j))
			}
			if l > 2 {
				pinDeps = append(pinDeps, p.id(RolePage, l-1, j)) // staging-slot reuse
			}
			b.add(RolePin, l+1, j, sim.Pin, d.PinPage, "pin", pinDeps...)
		}
	}

	// Prologue: slots 1..ahead (Alg. 1 lines 2-7).
	for g := 1; g <= ahead && g <= total; g++ {
		preSlot(g)
	}

	// Main loop (Alg. 1 lines 8-17).
	for g := 1; g <= total; g++ {
		l, j := p.slot(g)

		// LoadH (D2): attention output for this slot returns to GPU.
		b.add(RoleLoadH, l, j, sim.HtoD, d.HiddenLoad, "hidden-load", p.id(RoleCPUAttn, l, j))

		// Weight transfer for layer l+1 (D3).
		if paged {
			deps := []int{p.id(RolePin, l+1, j)}
			if j == 1 && l > 1 {
				deps = append(deps, p.id(RolePost, l-1, p.MicroBatches)) // double-buffer slot reuse
			}
			b.add(RolePage, l+1, j, sim.HtoD, d.WeightPage, "weights", deps...)
		} else if j == p.MicroBatches {
			// Monolithic transfer issued at the layer boundary; baseline
			// systems keep weights pinned, so no staging dependency
			// (beyond the disk read when a disk tier is in play).
			b.wholeLayer(l + 1)
		}

		// Post-attention (O projection + MoE FFN; under LayerFFN
		// O projection + router) needs the hidden states and the full
		// layer weights.
		deps := []int{p.id(RoleLoadH, l, j)}
		if l > 1 {
			if paged {
				deps = append(deps, p.id(RolePage, l, p.MicroBatches))
			} else {
				deps = append(deps, p.id(RoleWFull, l, 0))
			}
		}
		b.add(RolePost, l, j, sim.GPU, d.PostAttn, "post-attn", deps...)

		// Launch the pre-attention chain `ahead` slots in advance
		// (Alg. 1 lines 14-17). A layer-wide FFN stops the look-ahead at
		// the layer's last slot and restarts it behind ffn(l).
		switch {
		case !p.LayerFFN:
			if g2 := g + ahead; g2 <= total {
				preSlot(g2)
			}
		case j+ahead <= p.MicroBatches:
			preSlot(g + ahead)
		case j == p.MicroBatches:
			posts := make([]int, p.MicroBatches)
			for k := range posts {
				posts[k] = p.id(RolePost, l, k+1)
			}
			b.add(RoleFFN, l, 0, sim.GPU, d.FFN, "expert-ffn", posts...)
			for g2 := g + 1; g2 <= g+ahead && g2 <= total; g2++ {
				preSlot(g2) // the next layer's prologue
			}
		}
	}
	return b.tasks
}

// wholeLayer emits layer l's monolithic weight transfer, behind the
// read of its disk-resident share when a disk tier is in play.
func (b *builder) wholeLayer(l int) {
	var deps []int
	if b.p.D.DiskWhole > 0 {
		b.add(RoleDisk, l, 0, sim.Disk, b.p.D.DiskWhole, "disk-read")
		deps = []int{b.p.id(RoleDisk, l, 0)}
	}
	b.add(RoleWFull, l, 0, sim.HtoD, b.p.D.WeightWhole, "weights", deps...)
}

// buildGPUAttn emits FlexGen's S4 schedule: attention on GPU with the
// micro-batch's KV cache prefetched over HtoD, monolithic weight
// transfers queued behind the KV loads.
func buildGPUAttn(p Plan) []sim.Task {
	b := builder{p: p}
	d := p.D
	for l := 1; l <= p.Layers; l++ {
		for j := 1; j <= p.MicroBatches; j++ {
			// KV prefetch for this micro-batch (D4).
			b.add(RoleKVLoad, l, j, sim.HtoD, d.KVLoad, "kv-load")
			// Fused block: pre-attention, GPU attention, post-attention.
			deps := []int{p.id(RoleKVLoad, l, j)}
			if l > 1 {
				deps = append(deps, p.id(RoleWFull, l, 0))
			}
			if j > 1 {
				deps = append(deps, p.id(RoleBlock, l, j-1))
			} else if l > 1 {
				deps = append(deps, p.id(RoleBlock, l-1, p.MicroBatches))
			}
			b.add(RoleBlock, l, j, sim.GPU, d.PreAttn+d.GPUAttn+d.PostAttn, "gpu-block", deps...)
			// New token K/V writes back to the CPU cache.
			b.add(RoleKVStore, l, j, sim.DtoH, d.KVStore, "kv-store", p.id(RoleBlock, l, j))
		}
		// Next layer's weights queue behind this layer's KV loads.
		b.wholeLayer(l + 1)
	}
	return b.tasks
}

// buildSerial emits the DeepSpeed-style schedule: the whole batch as a
// single kernel sequence per layer, KV cache resident in GPU memory,
// next layer's weights prefetched during compute.
func buildSerial(p Plan) []sim.Task {
	b := builder{p: p}
	d := p.D
	for l := 1; l <= p.Layers; l++ {
		b.wholeLayer(l + 1)
		for j := 1; j <= p.MicroBatches; j++ {
			var deps []int
			if l > 1 {
				deps = append(deps, p.id(RoleWFull, l, 0))
			}
			if j > 1 {
				deps = append(deps, p.id(RoleBlock, l, j-1))
			}
			b.add(RoleBlock, l, j, sim.GPU, d.PreAttn+d.GPUAttn+d.PostAttn, "gpu-block", deps...)
		}
	}
	return b.tasks
}

// Package memory estimates the per-device memory footprint of a
// parallelization strategy and checks it against device capacities. The
// production FlexFlow runtime enforces this constraint when mapping
// tasks; the paper's search implicitly relies on strategies fitting in
// GPU memory. This module makes the constraint explicit: it reports the
// footprint of a finished strategy (flexflow.MemoryFootprint, the
// CLI's -mem report) and whether it fits (flexflow.CheckMemory).
//
// The footprint model is the standard training-memory accounting:
//
//   - weights: each device stores every weight shard any of its tasks
//     uses (deduplicated per op/shard);
//   - gradients: one buffer the size of each stored weight shard (plain
//     SGD: no optimizer state beyond the gradients);
//   - activations: each forward task's output region, retained for the
//     backward pass;
//   - activation gradients: transient, bounded by the largest single
//     activation on the device (double-buffered).
package memory

import (
	"fmt"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/tensor"
)

// Usage is the footprint of one device in bytes.
type Usage struct {
	Weights     int64
	Gradients   int64
	Activations int64
	Transient   int64
}

// Total returns the combined footprint.
func (u Usage) Total() int64 {
	return u.Weights + u.Gradients + u.Activations + u.Transient
}

// Footprint computes the per-device memory usage of a strategy. The
// returned map is keyed by device ID and covers every device that runs
// at least one task.
func Footprint(g *graph.Graph, topo *device.Topology, s *config.Strategy) map[int]*Usage {
	out := map[int]*Usage{}
	get := func(dev int) *Usage {
		u := out[dev]
		if u == nil {
			u = &Usage{}
			out[dev] = u
		}
		return u
	}
	for _, op := range g.ComputeOps() {
		c := s.Config(op.ID)
		if c == nil {
			continue
		}
		// Weight shards per device: a device holds one copy of each
		// distinct shard its tasks use.
		if op.HasWeights() {
			w := op.Weights(c.Degrees)
			shardBytes := w.Elems * tensor.ElemBytes
			type key struct{ dev, shard int }
			seen := map[key]bool{}
			for k := 0; k < c.NumTasks(); k++ {
				coords := tensor.GridCoords(c.Degrees, k)
				shard := 0
				for i, d := range c.Degrees {
					if op.Out.Kind(i) == tensor.Parameter {
						shard = shard*d + coords[i]
					}
				}
				kk := key{c.Devices[k], shard}
				if seen[kk] {
					continue
				}
				seen[kk] = true
				u := get(c.Devices[k])
				u.Weights += shardBytes
				u.Gradients += shardBytes
			}
		}
		// Activations: each task's output region lives on its device
		// until the backward pass consumes it.
		for k := 0; k < c.NumTasks(); k++ {
			region := tensor.GridRegion(op.Out, c.Degrees, k)
			u := get(c.Devices[k])
			bytes := region.Bytes()
			u.Activations += bytes
			if bytes > u.Transient {
				u.Transient = bytes
			}
		}
	}
	return out
}

// Violation describes a device whose footprint exceeds its capacity.
type Violation struct {
	Device   device.Device
	Usage    Usage
	Capacity int64
}

// Error describes the overflowing device and by how much.
func (v Violation) Error() string {
	return fmt.Sprintf("memory: device %s needs %.2f GB but has %.0f GB",
		v.Device.Name, float64(v.Usage.Total())/1e9, v.Device.MemGB)
}

// Check returns a Violation error for the first device whose strategy
// footprint exceeds its capacity (devices with MemGB == 0 are
// unconstrained), or nil if the strategy fits everywhere.
func Check(g *graph.Graph, topo *device.Topology, s *config.Strategy) error {
	usage := Footprint(g, topo, s)
	// Deterministic iteration order for stable error messages.
	for id := 0; id < topo.NumDevices(); id++ {
		u := usage[id]
		if u == nil {
			continue
		}
		d := topo.Device(id)
		if d.MemGB <= 0 {
			continue
		}
		cap := int64(d.MemGB * 1e9)
		if u.Total() > cap {
			return Violation{Device: d, Usage: *u, Capacity: cap}
		}
	}
	return nil
}

package memory

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
)

// Property: weight bytes across all devices are at least one full copy
// of the model (someone must hold each shard) and at most GPUs copies
// (full replication bound).
func TestWeightStorageBoundsProperty(t *testing.T) {
	g := bigDenseDeep()
	var totalWeights int64
	for _, op := range g.Ops {
		totalWeights += op.WeightBytes()
	}
	fn := func(seed int64) bool {
		topo := device.NewSingleNode(4, "P100")
		rng := rand.New(rand.NewSource(seed))
		s := config.Random(g, topo, rng)
		usage := Footprint(g, topo, s, Model{})
		var stored int64
		for _, u := range usage {
			stored += u.Weights
		}
		// At least one full copy (allow integer-division slack of one
		// element per shard), at most one per GPU.
		slack := int64(len(g.Ops) * 64 * 4)
		return stored >= totalWeights-slack && stored <= 4*totalWeights
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func bigDenseDeep() *graph.Graph {
	g := graph.New("deep")
	x := g.Input4D("x", 16, 4, 16, 16)
	c := g.Conv2D("c1", x, 8, 3, 3, 1, 1, 1, 1)
	f := g.Flatten("f", c)
	d1 := g.Dense("fc1", f, 256)
	d2 := g.Dense("fc2", d1, 256)
	g.SoftmaxClassifier("sm", d2, 32)
	return g
}

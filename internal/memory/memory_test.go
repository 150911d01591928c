package memory

import (
	"errors"
	"testing"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/tensor"
)

func bigDense() *graph.Graph {
	g := graph.New("big")
	x := g.InputTensor("x", tensor.MakeShape(
		tensor.D(graph.DimSample, 64, tensor.Sample),
		tensor.D(graph.DimChannel, 8192, tensor.Attribute)))
	g.Dense("fc", x, 65536) // 8192*65536*4B ~ 2.1 GB of weights
	return g
}

func TestFootprintDataParallelReplicatesWeights(t *testing.T) {
	g := bigDense()
	topo := device.NewSingleNode(4, "P100")
	s := config.DataParallel(g, topo)
	usage := Footprint(g, topo, s)
	fc := g.Op(1)
	weightBytes := fc.WeightElems * tensor.ElemBytes
	for _, id := range topo.GPUs() {
		u := usage[id]
		if u == nil {
			t.Fatalf("device %d unused", id)
		}
		// Full replica per device under data parallelism.
		if u.Weights != weightBytes {
			t.Fatalf("device %d weights = %d, want %d", id, u.Weights, weightBytes)
		}
		if u.Gradients != weightBytes {
			t.Fatalf("gradients = %d", u.Gradients)
		}
		if u.Activations <= 0 || u.Transient <= 0 {
			t.Fatalf("activations accounting: %+v", u)
		}
	}
}

func TestFootprintParamParallelShardsWeights(t *testing.T) {
	g := bigDense()
	topo := device.NewSingleNode(4, "P100")
	s := config.NewStrategy(g)
	fc := g.Op(1)
	s.Set(fc.ID, config.ParamParallel(fc, topo.GPUs()))
	usage := Footprint(g, topo, s)
	weightBytes := fc.WeightElems * tensor.ElemBytes
	var total int64
	for _, u := range usage {
		total += u.Weights
	}
	// Shards partition the weights: total stored ~ one copy.
	if total > weightBytes+weightBytes/100 {
		t.Fatalf("param-parallel stores %d weight bytes, want ~%d", total, weightBytes)
	}
}

func TestCheckDetectsOverflow(t *testing.T) {
	// Replicate ~2.1 GB of weights plus ~2.1 GB of gradients on a 3 GB
	// device: must violate.
	g := bigDense()
	topo := device.NewTopology("tiny-mem")
	a := topo.AddDevice(device.Device{Kind: device.GPU, Name: "small0", Model: "P100", PeakGFLOPS: 9300, MemBWGBs: 732, MemGB: 3})
	b := topo.AddDevice(device.Device{Kind: device.GPU, Name: "small1", Model: "P100", PeakGFLOPS: 9300, MemBWGBs: 732, MemGB: 3})
	topo.AddLink(device.NVLink, a, b, 18, 0)

	s := config.DataParallel(g, topo)
	err := Check(g, topo, s)
	if err == nil {
		t.Fatal("oversized strategy passed the memory check")
	}
	var v Violation
	if !errors.As(err, &v) {
		t.Fatalf("error type = %T", err)
	}
	if v.Device.Name != "small0" {
		t.Fatalf("violating device = %s", v.Device.Name)
	}
	if v.Error() == "" {
		t.Fatal("empty violation message")
	}

	// Sharding the dense layer across both devices fits under plain SGD
	// (~1.07 GB weights + 1.07 GB gradients per device).
	sharded := config.NewStrategy(g)
	fc := g.Op(1)
	sharded.Set(fc.ID, config.ParamParallel(fc, topo.GPUs()))
	if err := Check(g, topo, sharded); err != nil {
		t.Fatalf("sharded strategy should fit: %v", err)
	}
}

func TestUnconstrainedDevices(t *testing.T) {
	g := bigDense()
	topo := device.NewTopology("no-caps")
	a := topo.AddDevice(device.Device{Kind: device.GPU, Name: "g0", Model: "X"}) // MemGB 0
	b := topo.AddDevice(device.Device{Kind: device.GPU, Name: "g1", Model: "X"})
	topo.AddLink(device.NVLink, a, b, 18, 0)
	s := config.DataParallel(g, topo)
	if err := Check(g, topo, s); err != nil {
		t.Fatalf("unconstrained devices should always fit: %v", err)
	}
}

func TestPaperModelsFitTheirClusters(t *testing.T) {
	// Sanity: the paper trained these models data-parallel on 16 GB
	// P100s, so our accounting must agree they fit.
	topo := device.NewSingleNode(4, "P100")
	for _, name := range []string{"alexnet", "inception-v3", "rnnlm"} {
		g := buildModel(t, name)
		s := config.DataParallel(g, topo)
		if err := Check(g, topo, s); err != nil {
			t.Fatalf("%s does not fit a P100 under data parallelism: %v", name, err)
		}
	}
}

func buildModel(t *testing.T, name string) *graph.Graph {
	t.Helper()
	switch name {
	case "alexnet":
		return alexnetScaled()
	case "inception-v3":
		return inceptionScaled()
	default:
		return rnnlmScaled()
	}
}

// Local reduced builders avoid an import cycle with internal/models'
// test helpers (models itself is fine to import; keep these tiny).
func alexnetScaled() *graph.Graph {
	g := graph.New("alexnet-ish")
	x := g.Input4D("x", 32, 3, 227, 227)
	c := g.Conv2D("c1", x, 96, 11, 11, 4, 4, 0, 0)
	p := g.Pool2D("p1", c, 3, 3, 2, 2, 0, 0)
	f := g.Flatten("f", p)
	d := g.Dense("fc6", f, 4096)
	g.SoftmaxClassifier("fc8", d, 1000)
	return g
}

func inceptionScaled() *graph.Graph {
	g := graph.New("inception-ish")
	x := g.Input4D("x", 16, 3, 149, 149)
	c := g.Conv2D("c1", x, 32, 3, 3, 2, 2, 0, 0)
	c = g.Conv2D("c2", c, 64, 3, 3, 1, 1, 1, 1)
	p := g.Pool2D("p", c, 3, 3, 2, 2, 0, 0)
	f := g.Flatten("f", p)
	g.SoftmaxClassifier("fc", f, 1000)
	return g
}

func rnnlmScaled() *graph.Graph {
	g := graph.New("rnnlm-ish")
	ids := g.InputSeq("tok", 16, 8)
	e := g.Embedding("emb", ids, 10000, 2048)
	var prev *graph.Op
	for s := 0; s < 8; s++ {
		prev = g.LSTMStep("l", e, prev, s, 2048)
	}
	g.SoftmaxClassifier("sm", prev, 10000)
	return g
}

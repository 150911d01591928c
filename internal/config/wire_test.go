package config

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/models"
)

// TestGraphWireRoundTripModelZoo pins the server's graph wire format
// for every graph the model zoo can emit: each model marshals, decodes
// back into a structurally identical graph (op-by-op field equality,
// consumer wiring, aggregate weight/FLOP counts), and re-marshals to
// the identical bytes, so the format cannot silently lose a field some
// model relies on.
func TestGraphWireRoundTripModelZoo(t *testing.T) {
	for _, name := range models.Names() {
		t.Run(name, func(t *testing.T) {
			spec, err := models.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			g := spec.BuildScaled(16)
			data, err := MarshalGraph(g)
			if err != nil {
				t.Fatalf("MarshalGraph: %v", err)
			}
			got, err := UnmarshalGraph(data)
			if err != nil {
				t.Fatalf("UnmarshalGraph: %v", err)
			}
			if got.Name != g.Name {
				t.Fatalf("name %q != %q", got.Name, g.Name)
			}
			if got.NumOps() != g.NumOps() {
				t.Fatalf("%d ops != %d", got.NumOps(), g.NumOps())
			}
			for i, want := range g.Ops {
				op := got.Op(i)
				if op.ID != want.ID || op.Kind != want.Kind || op.Name != want.Name {
					t.Fatalf("op %d: %v != %v", i, op, want)
				}
				if !op.Out.Equal(want.Out) {
					t.Fatalf("op %q: out %v != %v", op.Name, op.Out, want.Out)
				}
				if len(op.Inputs) != len(want.Inputs) {
					t.Fatalf("op %q: %d inputs != %d", op.Name, len(op.Inputs), len(want.Inputs))
				}
				for j := range op.Inputs {
					if op.Inputs[j].ID != want.Inputs[j].ID {
						t.Fatalf("op %q input %d: id %d != %d", op.Name, j, op.Inputs[j].ID, want.Inputs[j].ID)
					}
				}
				if op.KernelH != want.KernelH || op.KernelW != want.KernelW ||
					op.StrideH != want.StrideH || op.StrideW != want.StrideW ||
					op.PadH != want.PadH || op.PadW != want.PadW {
					t.Fatalf("op %q: geometry differs", op.Name)
				}
				if op.ConcatDim != want.ConcatDim || op.Step != want.Step ||
					op.InChannels != want.InChannels || op.Layer != want.Layer ||
					op.WeightElems != want.WeightElems {
					t.Fatalf("op %q: metadata differs (%d/%d/%d/%d/%d vs %d/%d/%d/%d/%d)",
						op.Name, op.ConcatDim, op.Step, op.InChannels, op.Layer, op.WeightElems,
						want.ConcatDim, want.Step, want.InChannels, want.Layer, want.WeightElems)
				}
				if len(got.Consumers(op)) != len(g.Consumers(want)) {
					t.Fatalf("op %q: %d consumers != %d", op.Name, len(got.Consumers(op)), len(g.Consumers(want)))
				}
			}
			if got.TotalWeights() != g.TotalWeights() {
				t.Fatalf("weights %d != %d", got.TotalWeights(), g.TotalWeights())
			}
			if got.TotalFLOPs() != g.TotalFLOPs() {
				t.Fatalf("flops %d != %d", got.TotalFLOPs(), g.TotalFLOPs())
			}
			again, err := MarshalGraph(got)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("marshal -> unmarshal -> marshal is not a fixed point")
			}
		})
	}
}

// TestGraphWireLayerAnnotationsSurvive guards the one field a naive
// wire format would drop: the model-assigned Layer index the expert
// baseline depends on. NMT annotates layers, so at least one decoded
// op must carry a non-negative Layer.
func TestGraphWireLayerAnnotationsSurvive(t *testing.T) {
	spec, err := models.Get("nmt")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.BuildScaled(16)
	data, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	annotated := false
	for i, op := range g.Ops {
		if got.Op(i).Layer != op.Layer {
			t.Fatalf("op %q: layer %d != %d", op.Name, got.Op(i).Layer, op.Layer)
		}
		if op.Layer >= 0 {
			annotated = true
		}
	}
	if !annotated {
		t.Fatal("nmt has no layer annotations; the guard is vacuous")
	}
}

// TestStrategyAgainstDecodedGraph ties the two wire formats together:
// a strategy exported against the original graph must import cleanly
// against the decoded graph, because both formats key ops by name.
func TestStrategyAgainstDecodedGraph(t *testing.T) {
	spec, err := models.Get("lenet")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.BuildScaled(16)
	topo := device.NewSingleNode(4, "P100")
	s := DataParallel(g, topo)
	sdata, err := MarshalStrategy(g, s)
	if err != nil {
		t.Fatal(err)
	}
	gdata, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalGraph(gdata)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalStrategy(sdata, decoded, topo)
	if err != nil {
		t.Fatalf("strategy does not import against the decoded graph: %v", err)
	}
	if !got.Equal(s) {
		t.Fatal("imported strategy differs")
	}
}

// TestTopologyWireRoundTrip pins the topology wire format for the
// built-in machines: single nodes and both paper clusters round-trip
// to identical bytes, and routed paths agree before and after.
func TestTopologyWireRoundTrip(t *testing.T) {
	topos := []*device.Topology{
		device.NewSingleNode(1, "P100"),
		device.NewSingleNode(4, "P100"),
		device.NewSingleNode(4, "K80"),
		device.NewP100Cluster(2),
		device.NewK80Cluster(2),
	}
	for _, topo := range topos {
		t.Run(topo.Name, func(t *testing.T) {
			data, err := MarshalTopology(topo)
			if err != nil {
				t.Fatal(err)
			}
			got, err := UnmarshalTopology(data)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != topo.Name || got.NumDevices() != topo.NumDevices() || len(got.Links) != len(topo.Links) {
				t.Fatalf("shape mismatch: %s/%d/%d vs %s/%d/%d",
					got.Name, got.NumDevices(), len(got.Links), topo.Name, topo.NumDevices(), len(topo.Links))
			}
			for i := range topo.Devices {
				if got.Devices[i] != topo.Devices[i] {
					t.Fatalf("device %d: %+v != %+v", i, got.Devices[i], topo.Devices[i])
				}
			}
			for i := range topo.Links {
				if got.Links[i] != topo.Links[i] {
					t.Fatalf("link %d: %+v != %+v", i, got.Links[i], topo.Links[i])
				}
			}
			for src := 0; src < topo.NumDevices(); src++ {
				for dst := 0; dst < topo.NumDevices(); dst++ {
					a, b := topo.Route(src, dst), got.Route(src, dst)
					if a.BWGBs != b.BWGBs || a.Latency != b.Latency || a.BottleneckLink != b.BottleneckLink {
						t.Fatalf("route %d->%d differs: %+v vs %+v", src, dst, a, b)
					}
				}
			}
			again, err := MarshalTopology(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatal("marshal -> unmarshal -> marshal is not a fixed point")
			}
		})
	}
}

// TestGraphWireRejectsCorruption exercises the decode-side validation:
// payloads with unknown kinds, duplicate or dangling names, or
// non-positive sizes are rejected with errors, never panics.
func TestGraphWireRejectsCorruption(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{`,
		"no name":        `{"ops":[]}`,
		"unknown kind":   `{"name":"g","ops":[{"name":"x","kind":"Warp","out":[{"name":"sample","size":4,"kind":"sample"}]}]}`,
		"unknown dim":    `{"name":"g","ops":[{"name":"x","kind":"Input","out":[{"name":"sample","size":4,"kind":"spatial"}]}]}`,
		"bad size":       `{"name":"g","ops":[{"name":"x","kind":"Input","out":[{"name":"sample","size":0,"kind":"sample"}]}]}`,
		"no shape":       `{"name":"g","ops":[{"name":"x","kind":"Input"}]}`,
		"unnamed op":     `{"name":"g","ops":[{"kind":"Input","out":[{"name":"sample","size":4,"kind":"sample"}]}]}`,
		"dangling input": `{"name":"g","ops":[{"name":"x","kind":"Activation","inputs":["missing"],"out":[{"name":"sample","size":4,"kind":"sample"}]}]}`,
		"duplicate op": `{"name":"g","ops":[
			{"name":"x","kind":"Input","out":[{"name":"sample","size":4,"kind":"sample"}]},
			{"name":"x","kind":"Input","out":[{"name":"sample","size":4,"kind":"sample"}]}]}`,
	}
	for name, payload := range cases {
		if _, err := UnmarshalGraph([]byte(payload)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestGraphWireRejectsBadWindow decodes a small conv/pool graph with
// one window field corrupted at a time: a kernel or stride below 1,
// negative padding, a convolution over fewer than one input channel,
// or an output height/width that the window does not produce. Each
// must be a decode error naming the op; the builders never emit one,
// so the untouched graph decodes.
func TestGraphWireRejectsBadWindow(t *testing.T) {
	g := graph.New("window")
	x := g.Input4D("images", 8, 3, 16, 16)
	c := g.Conv2D("conv", x, 8, 3, 3, 1, 1, 1, 1)
	g.Pool2D("pool", c, 2, 2, 2, 2, 0, 0)
	data, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalGraph(data); err != nil {
		t.Fatalf("the untouched graph does not decode: %v", err)
	}
	const conv, pool = 1, 2
	for name, c := range map[string]struct {
		op     int
		mutate func(*opJSON)
	}{
		"conv kernel_h 0":      {conv, func(o *opJSON) { o.KernelH = 0 }},
		"conv kernel_w -1":     {conv, func(o *opJSON) { o.KernelW = -1 }},
		"conv stride_h 0":      {conv, func(o *opJSON) { o.StrideH = 0 }},
		"conv stride_w -1":     {conv, func(o *opJSON) { o.StrideW = -1 }},
		"conv pad_h -1":        {conv, func(o *opJSON) { o.PadH = -1 }},
		"conv in_channels 0":   {conv, func(o *opJSON) { o.InChannels = 0 }},
		"conv in_channels -3":  {conv, func(o *opJSON) { o.InChannels = -3 }},
		"conv height too tall": {conv, func(o *opJSON) { o.Out[2].Size++ }},
		"conv kernel_h 5":      {conv, func(o *opJSON) { o.KernelH = 5 }},
		"pool kernel_w 0":      {pool, func(o *opJSON) { o.KernelW = 0 }},
		"pool stride_h -1":     {pool, func(o *opJSON) { o.StrideH = -1 }},
		"pool pad_w -1":        {pool, func(o *opJSON) { o.PadW = -1 }},
		"pool width too wide":  {pool, func(o *opJSON) { o.Out[3].Size++ }},
	} {
		var gj graphJSON
		if err := json.Unmarshal(data, &gj); err != nil {
			t.Fatal(err)
		}
		c.mutate(&gj.Ops[c.op])
		bad, err := json.Marshal(gj)
		if err != nil {
			t.Fatal(err)
		}
		_, err = UnmarshalGraph(bad)
		if opName := gj.Ops[c.op].Name; err == nil || !strings.Contains(err.Error(), strconv.Quote(opName)) {
			t.Errorf("%s: err = %v, want an error naming op %q", name, err, opName)
		}
	}
}

// TestTopologyWireRejectsCorruption is the topology-side analogue:
// unknown enums, dangling link endpoints and disconnected machines are
// decode errors.
func TestTopologyWireRejectsCorruption(t *testing.T) {
	gpu := `{"kind":"GPU","name":"gpu0","node":0,"model":"P100","peak_gflops":9300,"mem_bw_gbs":732,"mem_gb":16}`
	cases := map[string]string{
		"bad json":      `{`,
		"no name":       `{"devices":[],"links":[]}`,
		"no devices":    `{"name":"t","devices":[],"links":[]}`,
		"unknown kind":  `{"name":"t","devices":[{"kind":"TPU","name":"d0"}],"links":[]}`,
		"unknown class": `{"name":"t","devices":[` + gpu + `,` + gpu + `],"links":[{"class":"Carrier","a":0,"b":1,"bw_gbs":10}]}`,
		"dangling link": `{"name":"t","devices":[` + gpu + `],"links":[{"class":"NVLink","a":0,"b":7,"bw_gbs":10}]}`,
		"zero bw":       `{"name":"t","devices":[` + gpu + `,` + gpu + `],"links":[{"class":"NVLink","a":0,"b":1,"bw_gbs":0}]}`,
		"disconnected":  `{"name":"t","devices":[` + gpu + `,` + gpu + `],"links":[]}`,
	}
	for name, payload := range cases {
		if _, err := UnmarshalTopology([]byte(payload)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

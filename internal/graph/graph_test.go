package graph

import (
	"fmt"
	"strings"
	"testing"

	"flexflow/internal/tensor"
)

func buildTinyCNN() *Graph {
	g := New("tiny-cnn")
	x := g.Input4D("images", 8, 3, 32, 32)
	c1 := g.Conv2D("conv1", x, 16, 3, 3, 1, 1, 1, 1)
	p1 := g.Pool2D("pool1", c1, 2, 2, 2, 2, 0, 0)
	f := g.Flatten("flatten", p1)
	g.Dense("fc", f, 10)
	return g
}

func TestBuilderShapes(t *testing.T) {
	g := buildTinyCNN()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	conv := g.Op(1)
	want := tensor.MakeShape(
		tensor.D(DimSample, 8, tensor.Sample),
		tensor.D(DimChannel, 16, tensor.Parameter),
		tensor.D(DimHeight, 32, tensor.Attribute),
		tensor.D(DimWidth, 32, tensor.Attribute),
	)
	if !conv.Out.Equal(want) {
		t.Fatalf("conv out = %v, want %v", conv.Out, want)
	}
	pool := g.Op(2)
	if pool.Out.Size(2) != 16 || pool.Out.Size(3) != 16 {
		t.Fatalf("pool out = %v", pool.Out)
	}
	flat := g.Op(3)
	if flat.Out.Size(1) != 16*16*16 {
		t.Fatalf("flatten features = %d", flat.Out.Size(1))
	}
	fc := g.Op(4)
	if fc.WeightElems != 16*16*16*10+10 {
		t.Fatalf("fc weights = %d", fc.WeightElems)
	}
	if conv.WeightElems != int64(16*3*3*3+16) {
		t.Fatalf("conv weights = %d", conv.WeightElems)
	}
}

// TestTable1ParallelizableDims reproduces Table 1 of the paper: the
// parallelizable dimensions of pooling, convolution and matmul outputs.
func TestTable1ParallelizableDims(t *testing.T) {
	g := New("table1")
	x := g.Input4D("x", 8, 3, 32, 32)
	conv := g.Conv2D("conv", x, 16, 3, 3, 1, 1, 1, 1)
	pool := g.Pool2D("pool", conv, 2, 2, 2, 2, 0, 0)
	f := g.Flatten("f", pool)
	mm := g.Dense("mm", f, 10)

	// 2D convolution: sample(S), height+width(A), channel(P).
	kinds := map[string]tensor.DimKind{}
	for _, d := range conv.Out.Dims {
		kinds[d.Name] = d.Kind
	}
	if kinds[DimSample] != tensor.Sample || kinds[DimChannel] != tensor.Parameter ||
		kinds[DimHeight] != tensor.Attribute || kinds[DimWidth] != tensor.Attribute {
		t.Fatalf("conv2d dim kinds = %v", conv.Out)
	}
	// Pooling: sample(S); length/channel are attributes (no weights).
	for _, d := range pool.Out.Dims[1:] {
		if d.Kind != tensor.Attribute {
			t.Fatalf("pooling dim %s kind = %v, want attribute", d.Name, d.Kind)
		}
	}
	// Matrix multiplication: sample(S), channel(P), no attribute dims.
	if mm.Out.Kind(0) != tensor.Sample || mm.Out.Kind(1) != tensor.Parameter {
		t.Fatalf("matmul dim kinds = %v", mm.Out)
	}
	if len(conv.ParallelDims()) != 4 {
		t.Fatalf("conv parallel dims = %v", conv.ParallelDims())
	}
}

func TestConvHaloRegions(t *testing.T) {
	g := New("halo")
	x := g.Input4D("x", 4, 3, 16, 16)
	conv := g.Conv2D("conv", x, 8, 3, 3, 1, 1, 1, 1)

	// Bottom half of the output rows: needs input rows 7..16 (halo of 1).
	out := conv.Out.FullRegion()
	out.Iv[2] = tensor.Interval{Lo: 8, Hi: 16}
	in := InputRegions(conv, out)[0]
	if in.Iv[2] != (tensor.Interval{Lo: 7, Hi: 16}) {
		t.Fatalf("halo rows = %v, want [7,16)", in.Iv[2])
	}
	// Full input channels regardless of output channel slice.
	out2 := conv.Out.FullRegion()
	out2.Iv[1] = tensor.Interval{Lo: 0, Hi: 4}
	in2 := InputRegions(conv, out2)[0]
	if in2.Iv[1] != (tensor.Interval{Lo: 0, Hi: 3}) {
		t.Fatalf("input channels = %v, want full [0,3)", in2.Iv[1])
	}
	// Top rows with padding clamp at 0.
	out3 := conv.Out.FullRegion()
	out3.Iv[2] = tensor.Interval{Lo: 0, Hi: 8}
	in3 := InputRegions(conv, out3)[0]
	if in3.Iv[2] != (tensor.Interval{Lo: 0, Hi: 9}) {
		t.Fatalf("clamped halo = %v, want [0,9)", in3.Iv[2])
	}
}

func TestStridedPoolRegions(t *testing.T) {
	g := New("pool")
	x := g.Input4D("x", 2, 4, 8, 8)
	pool := g.Pool2D("pool", x, 2, 2, 2, 2, 0, 0)
	out := pool.Out.FullRegion()
	out.Iv[2] = tensor.Interval{Lo: 1, Hi: 3} // output rows 1..2
	in := InputRegions(pool, out)[0]
	if in.Iv[2] != (tensor.Interval{Lo: 2, Hi: 6}) {
		t.Fatalf("pool input rows = %v, want [2,6)", in.Iv[2])
	}
	// Channel slice passes through unchanged.
	out.Iv[1] = tensor.Interval{Lo: 1, Hi: 2}
	in = InputRegions(pool, out)[0]
	if in.Iv[1] != (tensor.Interval{Lo: 1, Hi: 2}) {
		t.Fatalf("pool channels = %v", in.Iv[1])
	}
}

func TestMatMulRegions(t *testing.T) {
	g := New("mm")
	x := g.InputTensor("x", tensor.MakeShape(
		tensor.D(DimSample, 8, tensor.Sample), tensor.D(DimChannel, 32, tensor.Attribute)))
	mm := g.Dense("fc", x, 16)
	out := mm.Out.FullRegion()
	out.Iv[0] = tensor.Interval{Lo: 2, Hi: 6}
	out.Iv[1] = tensor.Interval{Lo: 0, Hi: 8}
	in := InputRegions(mm, out)[0]
	if in.Iv[0] != (tensor.Interval{Lo: 2, Hi: 6}) {
		t.Fatalf("matmul sample rows = %v", in.Iv[0])
	}
	if in.Iv[1] != (tensor.Interval{Lo: 0, Hi: 32}) {
		t.Fatalf("matmul reduction = %v, want full", in.Iv[1])
	}
}

func TestLSTMRegionsAndWeights(t *testing.T) {
	g := New("lstm")
	ids := g.InputSeq("tokens", 16, 10)
	emb := g.Embedding("embed", ids, 1000, 64)
	l0 := g.LSTMStep("lstm0.t0", emb, nil, 0, 128)
	l1 := g.LSTMStep("lstm0.t1", emb, l0, 1, 128)

	if l0.WeightElems != 4*(64+128+1)*128 {
		t.Fatalf("lstm weights = %d", l0.WeightElems)
	}
	out := l1.Out.FullRegion()
	out.Iv[1] = tensor.Interval{Lo: 0, Hi: 64} // half the hidden units
	regions := InputRegions(l1, out)
	if len(regions) != 2 {
		t.Fatalf("lstm input regions = %d", len(regions))
	}
	// Sequence slice: step 1 only, full channels.
	if regions[0].Iv[1] != (tensor.Interval{Lo: 1, Hi: 2}) {
		t.Fatalf("lstm seq step = %v", regions[0].Iv[1])
	}
	if regions[0].Iv[2] != (tensor.Interval{Lo: 0, Hi: 64}) {
		t.Fatalf("lstm seq channels = %v", regions[0].Iv[2])
	}
	// Previous state: full hidden needed even for a hidden slice.
	if regions[1].Iv[1] != (tensor.Interval{Lo: 0, Hi: 128}) {
		t.Fatalf("lstm prev hidden = %v", regions[1].Iv[1])
	}
}

func TestConcatRegionRemap(t *testing.T) {
	g := New("concat")
	x := g.Input4D("x", 2, 3, 8, 8)
	a := g.Conv2D("a", x, 4, 1, 1, 1, 1, 0, 0)
	b := g.Conv2D("b", x, 6, 1, 1, 1, 1, 0, 0)
	cat := g.ConcatChannels("cat", a, b)
	if cat.Out.Size(1) != 10 {
		t.Fatalf("concat channels = %d", cat.Out.Size(1))
	}
	out := cat.Out.FullRegion()
	out.Iv[1] = tensor.Interval{Lo: 2, Hi: 7} // spans both inputs
	rs := InputRegions(cat, out)
	if rs[0].Iv[1] != (tensor.Interval{Lo: 2, Hi: 4}) {
		t.Fatalf("concat input0 = %v", rs[0].Iv[1])
	}
	if rs[1].Iv[1] != (tensor.Interval{Lo: 0, Hi: 3}) {
		t.Fatalf("concat input1 = %v", rs[1].Iv[1])
	}
	// A slice entirely inside input1 reads nothing from input0.
	out.Iv[1] = tensor.Interval{Lo: 5, Hi: 9}
	rs = InputRegions(cat, out)
	if !rs[0].Empty() {
		t.Fatalf("concat input0 should be empty, got %v", rs[0])
	}
	if rs[1].Iv[1] != (tensor.Interval{Lo: 1, Hi: 5}) {
		t.Fatalf("concat input1 = %v", rs[1].Iv[1])
	}
}

func TestFlattenBoundingRegions(t *testing.T) {
	g := New("flat")
	x := g.Input4D("x", 2, 4, 3, 5)
	f := g.Flatten("f", x)
	// Full feature range covers the whole input.
	full := InputRegions(f, f.Out.FullRegion())[0]
	if !full.Equal(x.Out.FullRegion()) {
		t.Fatalf("full flatten region = %v", full)
	}
	// Features 15..30 live in channel 1 (15..29) and channel 2 (element 30).
	out := f.Out.FullRegion()
	out.Iv[1] = tensor.Interval{Lo: 15, Hi: 31}
	r := InputRegions(f, out)[0]
	if r.Iv[1] != (tensor.Interval{Lo: 1, Hi: 3}) {
		t.Fatalf("flatten channel bound = %v", r.Iv[1])
	}
	// A slice within one row of one channel tightens fully.
	out.Iv[1] = tensor.Interval{Lo: 16, Hi: 19} // channel 1, row 0, cols 1..3
	r = InputRegions(f, out)[0]
	if r.Iv[1] != (tensor.Interval{Lo: 1, Hi: 2}) || r.Iv[2] != (tensor.Interval{Lo: 0, Hi: 1}) || r.Iv[3] != (tensor.Interval{Lo: 1, Hi: 4}) {
		t.Fatalf("flatten tight region = %v", r)
	}
}

func TestAttentionRegions(t *testing.T) {
	g := New("attn")
	ids := g.InputSeq("src", 4, 6)
	emb := g.Embedding("emb", ids, 100, 32)
	q := g.LSTMStep("dec", emb, nil, 0, 32)
	attn := g.AttentionStep("attn", q, emb)
	out := attn.Out.FullRegion()
	out.Iv[0] = tensor.Interval{Lo: 1, Hi: 3}
	rs := InputRegions(attn, out)
	if rs[0].Iv[0] != (tensor.Interval{Lo: 1, Hi: 3}) || rs[0].Iv[1].Len() != 32 {
		t.Fatalf("attention query region = %v", rs[0])
	}
	if rs[1].Iv[1].Len() != 6 || rs[1].Iv[2].Len() != 32 {
		t.Fatalf("attention memory region = %v (want full seq)", rs[1])
	}
}

func TestWeightsSlicing(t *testing.T) {
	g := New("w")
	x := g.InputTensor("x", tensor.MakeShape(
		tensor.D(DimSample, 8, tensor.Sample), tensor.D(DimChannel, 32, tensor.Attribute)))
	mm := g.Dense("fc", x, 16)

	// Pure data parallelism on 4 devices: 1 shard, 4 replicas.
	w := mm.Weights([]int{4, 1})
	if w.Slices != 1 || w.Replicas != 4 || w.Elems != mm.WeightElems {
		t.Fatalf("data-parallel weights = %+v", w)
	}
	// Pure parameter parallelism: 4 shards, 1 replica each.
	w = mm.Weights([]int{1, 4})
	if w.Slices != 4 || w.Replicas != 1 || w.Elems != mm.WeightElems/4 {
		t.Fatalf("param-parallel weights = %+v", w)
	}
	// Hybrid (2 sample x 2 param).
	w = mm.Weights([]int{2, 2})
	if w.Slices != 2 || w.Replicas != 2 {
		t.Fatalf("hybrid weights = %+v", w)
	}
	// Weightless op.
	g2 := New("w2")
	y := g2.Input4D("y", 2, 3, 8, 8)
	pool := g2.Pool2D("p", y, 2, 2, 2, 2, 0, 0)
	if w := pool.Weights([]int{2, 1, 1, 1}); w.Slices != 0 {
		t.Fatalf("pool weights = %+v", w)
	}
}

func TestFLOPCounts(t *testing.T) {
	g := buildTinyCNN()
	conv := g.Op(1)
	full := conv.Out.FullRegion()
	want := int64(2 * 8 * 16 * 32 * 32 * 3 * 3 * 3)
	if got := conv.ForwardFLOPs(full); got != want {
		t.Fatalf("conv FLOPs = %d, want %d", got, want)
	}
	if got := conv.BackwardFLOPs(full); got != 2*want {
		t.Fatalf("conv backward FLOPs = %d, want %d", got, 2*want)
	}
	// Halving the output halves the FLOPs.
	half := conv.Out.FullRegion()
	half.Iv[0] = tensor.Interval{Lo: 0, Hi: 4}
	if got := conv.ForwardFLOPs(half); got != want/2 {
		t.Fatalf("half conv FLOPs = %d, want %d", got, want/2)
	}
	if g.Op(0).ForwardFLOPs(g.Op(0).Out.FullRegion()) != 0 {
		t.Fatal("input op should have zero FLOPs")
	}
	if g.TotalFLOPs() <= want {
		t.Fatal("TotalFLOPs should exceed conv FLOPs")
	}
}

func TestGraphHelpers(t *testing.T) {
	g := buildTinyCNN()
	if g.NumOps() != 5 {
		t.Fatalf("NumOps = %d", g.NumOps())
	}
	if len(g.ComputeOps()) != 4 {
		t.Fatalf("ComputeOps = %d", len(g.ComputeOps()))
	}
	if !g.IsLinear() {
		t.Fatal("tiny CNN should be linear")
	}
	cons := g.Consumers(g.Op(1))
	if len(cons) != 1 || cons[0].Name != "pool1" {
		t.Fatalf("Consumers(conv1) = %v", cons)
	}
	if g.TotalWeights() == 0 {
		t.Fatal("TotalWeights = 0")
	}
	if g.String() == "" {
		t.Fatal("String empty")
	}

	// A residual graph is not linear.
	g2 := New("res")
	x := g2.Input4D("x", 2, 4, 8, 8)
	c1 := g2.Conv2D("c1", x, 4, 3, 3, 1, 1, 1, 1)
	c2 := g2.Conv2D("c2", c1, 4, 3, 3, 1, 1, 1, 1)
	g2.Add("add", c1, c2)
	if g2.IsLinear() {
		t.Fatal("residual graph should not be linear")
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(g *Graph)
	}{
		{"conv-non4d", func(g *Graph) {
			x := g.InputSeq("x", 2, 3)
			g.Conv2D("c", x, 4, 3, 3, 1, 1, 1, 1)
		}},
		{"pool-non4d", func(g *Graph) {
			x := g.InputSeq("x", 2, 3)
			g.Pool2D("p", x, 2, 2, 2, 2, 0, 0)
		}},
		{"dense-non2d", func(g *Graph) {
			x := g.Input4D("x", 2, 3, 4, 4)
			g.Dense("d", x, 8)
		}},
		{"embedding-non2d", func(g *Graph) {
			x := g.Input4D("x", 2, 3, 4, 4)
			g.Embedding("e", x, 100, 8)
		}},
		{"lstm-bad-step", func(g *Graph) {
			ids := g.InputSeq("x", 2, 3)
			emb := g.Embedding("e", ids, 10, 4)
			g.LSTMStep("l", emb, nil, 5, 8)
		}},
		{"lstm-bad-prev", func(g *Graph) {
			ids := g.InputSeq("x", 2, 3)
			emb := g.Embedding("e", ids, 10, 4)
			prev := g.Dense("d", g.InputTensor("y", tensor.MakeShape(
				tensor.D(DimSample, 2, tensor.Sample), tensor.D(DimChannel, 4, tensor.Attribute))), 16)
			g.LSTMStep("l", emb, prev, 0, 8)
		}},
		{"add-mismatch", func(g *Graph) {
			a := g.Input4D("a", 2, 3, 4, 4)
			b := g.Input4D("b", 2, 3, 4, 5)
			g.Add("add", a, b)
		}},
		{"concat-short", func(g *Graph) {
			a := g.Input4D("a", 2, 3, 4, 4)
			g.ConcatChannels("cat", a)
		}},
		{"concat-mismatch", func(g *Graph) {
			a := g.Input4D("a", 2, 3, 4, 4)
			b := g.Input4D("b", 2, 3, 5, 4)
			g.ConcatChannels("cat", a, b)
		}},
		{"conv-too-small", func(g *Graph) {
			x := g.Input4D("x", 2, 3, 2, 2)
			g.Conv2D("c", x, 4, 5, 5, 1, 1, 0, 0)
		}},
		// Truncating division alone gives (3-4)/2+1 = 1 here.
		{"conv-wider-than-input-strided", func(g *Graph) {
			x := g.Input4D("x", 2, 3, 3, 3)
			g.Conv2D("c", x, 4, 4, 4, 2, 2, 0, 0)
		}},
		{"pool-wider-than-padded-input-strided", func(g *Graph) {
			x := g.Input4D("x", 2, 3, 3, 3)
			g.Pool2D("p", x, 6, 6, 3, 3, 1, 1)
		}},
		{"flatten-non4d", func(g *Graph) {
			x := g.InputSeq("x", 2, 3)
			g.Flatten("f", x)
		}},
		{"attention-mismatch", func(g *Graph) {
			ids := g.InputSeq("src", 4, 6)
			emb := g.Embedding("emb", ids, 100, 32)
			q := g.LSTMStep("dec", emb, nil, 0, 16) // hidden 16 != 32
			g.AttentionStep("attn", q, emb)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", c.name)
				}
			}()
			c.fn(New("panics"))
		})
	}
}

func TestOpKindString(t *testing.T) {
	if Conv2D.String() != "Conv2D" || LSTM.String() != "LSTM" {
		t.Fatal("OpKind.String mismatch")
	}
	if OpKind(200).String() != "OpKind(200)" {
		t.Fatal("unknown OpKind.String mismatch")
	}
}

// Property: for every op kind, the input regions of the full output
// region must cover the full input (everything the unpartitioned op
// reads), and regions of partial outputs must be contained in them.
func TestInputRegionMonotonicity(t *testing.T) {
	g := New("prop")
	x := g.Input4D("x", 8, 6, 20, 20)
	conv := g.Conv2D("conv", x, 12, 3, 3, 1, 1, 1, 1)
	pool := g.Pool2D("pool", conv, 2, 2, 2, 2, 0, 0)
	f := g.Flatten("flat", pool)
	mm := g.Dense("fc", f, 10)
	ids := g.InputSeq("tok", 8, 5)
	emb := g.Embedding("emb", ids, 50, 16)
	lstm := g.LSTMStep("lstm", emb, nil, 2, 24)
	sm := g.SoftmaxClassifier("sm", lstm, 50)

	for _, op := range []*Op{conv, pool, f, mm, emb, lstm, sm} {
		full := InputRegions(op, op.Out.FullRegion())
		for i, in := range op.Inputs {
			_ = in
			// Every sub-region's needs are inside the full needs.
			for _, deg := range [][]int{nil} {
				_ = deg
			}
			dims := op.Out.ParallelizableDims()
			if len(dims) == 0 {
				continue
			}
			degrees := make([]int, op.Out.Rank())
			for d := range degrees {
				degrees[d] = 1
			}
			degrees[dims[0]] = 2
			for _, reg := range tensor.Partition(op.Out, degrees) {
				sub := InputRegions(op, reg)
				if !full[i].Contains(sub[i]) {
					t.Fatalf("op %s input %d: sub-region %v not contained in full %v", op.Name, i, sub[i], full[i])
				}
			}
		}
	}
}

// TestValidateRejectsOverWideWindow widens a valid strided conv's
// kernel past its input: convExtent still derives the op's 1x1 output
// (Go's division truncates toward zero), so only the kernel check can
// tell Validate that no such window exists.
func TestValidateRejectsOverWideWindow(t *testing.T) {
	g := New("wide")
	x := g.Input4D("x", 2, 3, 3, 3)
	c := g.Conv2D("conv", x, 4, 3, 3, 2, 2, 0, 0)
	if err := g.Validate(); err != nil {
		t.Fatalf("the built graph does not validate: %v", err)
	}
	c.KernelH = 4
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), `"conv"`) {
		t.Fatalf("err = %v, want an error naming op \"conv\"", err)
	}
}

// TestValidateMiswiredOps asserts Validate reports, and never panics on,
// an op whose input count or ranks do not fit its kind: every kind is
// wired with 0-3 inputs of ranks 1-4 and an output of rank 1-4, as a
// deserialized graph may be. An output too large for int64 bytes is an
// error too.
func TestValidateMiswiredOps(t *testing.T) {
	shape := func(rank int) tensor.Shape {
		dims := make([]tensor.Dim, rank)
		for i := range dims {
			dims[i] = tensor.D("d", 4, tensor.Attribute)
		}
		return tensor.MakeShape(dims...)
	}
	for kind := Conv2D; int(kind) < len(opKindNames); kind++ {
		for inputs := 0; inputs <= 3; inputs++ {
			for inRank := 1; inRank <= 4; inRank++ {
				for outRank := 1; outRank <= 4; outRank++ {
					g := New("miswired")
					op := &Op{Kind: kind, Name: "op", Out: shape(outRank), KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
					for i := 0; i < inputs; i++ {
						in := &Op{Kind: Input, Name: fmt.Sprint("in", i), Out: shape(inRank)}
						g.Append(in)
						op.Inputs = append(op.Inputs, in)
					}
					g.Append(op)
					func() {
						defer func() {
							if p := recover(); p != nil {
								t.Errorf("%v with %d rank-%d inputs, rank-%d output: Validate panicked: %v", kind, inputs, inRank, outRank, p)
							}
						}()
						g.Validate()
					}()
				}
			}
		}
	}

	g := New("overflow")
	big := tensor.MakeShape(tensor.D("a", 1<<32, tensor.Sample), tensor.D("b", 1<<32, tensor.Attribute))
	g.Append(&Op{Kind: Input, Name: "x", Out: big})
	if err := g.Validate(); err == nil {
		t.Fatal("a 2^64-element output validated")
	}
}

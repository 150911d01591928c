package graph

import (
	"fmt"

	"flexflow/internal/tensor"
)

// The builder methods below construct ops with correctly classified
// output shapes. They panic on shape errors: model construction bugs are
// programming errors, not runtime conditions.

// InputTensor declares a framework-provided input with an explicit shape.
func (g *Graph) InputTensor(name string, shape tensor.Shape) *Op {
	return g.add(&Op{Kind: Input, Name: name, Out: shape})
}

// Input4D declares an image batch input (sample, channel, height, width).
func (g *Graph) Input4D(name string, samples, channels, height, width int) *Op {
	return g.InputTensor(name, tensor.MakeShape(
		tensor.D(DimSample, samples, tensor.Sample),
		tensor.D(DimChannel, channels, tensor.Unsplittable),
		tensor.D(DimHeight, height, tensor.Attribute),
		tensor.D(DimWidth, width, tensor.Attribute),
	))
}

// InputSeq declares a token-sequence input (sample, length), e.g. word
// ids for an embedding layer.
func (g *Graph) InputSeq(name string, samples, length int) *Op {
	return g.InputTensor(name, tensor.MakeShape(
		tensor.D(DimSample, samples, tensor.Sample),
		tensor.D(DimLength, length, tensor.Attribute),
	))
}

// Conv2D adds a 2D convolution. Output channels form a Parameter
// dimension (splitting them splits the filters); height and width are
// Attribute dimensions (Table 1).
func (g *Graph) Conv2D(name string, in *Op, outChannels, kh, kw, sh, sw, ph, pw int) *Op {
	is := in.Out
	if is.Rank() != 4 {
		panic(fmt.Sprintf("graph: Conv2D %q input must be 4D, got %v", name, is))
	}
	oh := convOut(is.Size(2), kh, sh, ph)
	ow := convOut(is.Size(3), kw, sw, pw)
	cin := is.Size(1)
	op := &Op{
		Kind: Conv2D, Name: name, Inputs: []*Op{in},
		KernelH: kh, KernelW: kw, StrideH: sh, StrideW: sw, PadH: ph, PadW: pw,
		InChannels:  cin,
		WeightElems: int64(outChannels)*int64(cin)*int64(kh)*int64(kw) + int64(outChannels),
		Out: tensor.MakeShape(
			tensor.D(DimSample, is.Size(0), tensor.Sample),
			tensor.D(DimChannel, outChannels, tensor.Parameter),
			tensor.D(DimHeight, oh, tensor.Attribute),
			tensor.D(DimWidth, ow, tensor.Attribute),
		),
	}
	return g.add(op)
}

// Pool2D adds a pooling layer. Pooling has no weights, so its channel
// dimension is an Attribute dimension (Table 1: "1D pooling — attribute:
// length, channel").
func (g *Graph) Pool2D(name string, in *Op, kh, kw, sh, sw, ph, pw int) *Op {
	is := in.Out
	if is.Rank() != 4 {
		panic(fmt.Sprintf("graph: Pool2D %q input must be 4D, got %v", name, is))
	}
	oh := convOut(is.Size(2), kh, sh, ph)
	ow := convOut(is.Size(3), kw, sw, pw)
	op := &Op{
		Kind: Pool2D, Name: name, Inputs: []*Op{in},
		KernelH: kh, KernelW: kw, StrideH: sh, StrideW: sw, PadH: ph, PadW: pw,
		Out: tensor.MakeShape(
			tensor.D(DimSample, is.Size(0), tensor.Sample),
			tensor.D(DimChannel, is.Size(1), tensor.Attribute),
			tensor.D(DimHeight, oh, tensor.Attribute),
			tensor.D(DimWidth, ow, tensor.Attribute),
		),
	}
	return g.add(op)
}

// Dense adds a fully-connected layer over a 2D (sample, channel) input.
func (g *Graph) Dense(name string, in *Op, outChannels int) *Op {
	is := in.Out
	if is.Rank() != 2 {
		panic(fmt.Sprintf("graph: Dense %q input must be 2D, got %v", name, is))
	}
	cin := is.Size(1)
	op := &Op{
		Kind: MatMul, Name: name, Inputs: []*Op{in},
		InChannels:  cin,
		WeightElems: int64(cin)*int64(outChannels) + int64(outChannels),
		Out: tensor.MakeShape(
			tensor.D(DimSample, is.Size(0), tensor.Sample),
			tensor.D(DimChannel, outChannels, tensor.Parameter),
		),
	}
	return g.add(op)
}

// Embedding adds a token-embedding lookup over an (sample, length) id
// tensor, producing (sample, length, channel). Splitting the channel
// dimension splits the embedding table columns, so it is a Parameter
// dimension. The length dimension is an Attribute dimension.
func (g *Graph) Embedding(name string, in *Op, vocab, channels int) *Op {
	is := in.Out
	if is.Rank() != 2 {
		panic(fmt.Sprintf("graph: Embedding %q input must be (sample, length), got %v", name, is))
	}
	op := &Op{
		Kind: Embedding, Name: name, Inputs: []*Op{in},
		InChannels:  vocab,
		WeightElems: int64(vocab) * int64(channels),
		Out: tensor.MakeShape(
			tensor.D(DimSample, is.Size(0), tensor.Sample),
			tensor.D(DimLength, is.Size(1), tensor.Attribute),
			tensor.D(DimChannel, channels, tensor.Parameter),
		),
	}
	return g.add(op)
}

// LSTMStep adds one unrolled LSTM step. seq is the layer's input for
// this step: either a 3D (sample, length, channel) sequence (first
// recurrent layer reading an embedding), from which slice `step` is
// consumed, or a 2D (sample, channel) per-step tensor (stacked layers
// reading the step output of the layer below). prev is the previous
// step's LSTM op of the same layer (nil for step 0). The output
// (sample, hidden) feeds both the next step of this layer and step
// `step` of the layer above.
func (g *Graph) LSTMStep(name string, seq *Op, prev *Op, step, hidden int) *Op {
	ss := seq.Out
	var cin int
	switch ss.Rank() {
	case 3:
		if step < 0 || step >= ss.Size(1) {
			panic(fmt.Sprintf("graph: LSTMStep %q step %d out of range [0,%d)", name, step, ss.Size(1)))
		}
		cin = ss.Size(2)
	case 2:
		cin = ss.Size(1)
	default:
		panic(fmt.Sprintf("graph: LSTMStep %q input must be 2D or 3D, got %v", name, ss))
	}
	inputs := []*Op{seq}
	if prev != nil {
		if prev.Out.Rank() != 2 || prev.Out.Size(1) != hidden {
			panic(fmt.Sprintf("graph: LSTMStep %q prev state shape %v incompatible with hidden %d", name, prev.Out, hidden))
		}
		inputs = append(inputs, prev)
	}
	op := &Op{
		Kind: LSTM, Name: name, Inputs: inputs, Step: step,
		InChannels:  cin,
		WeightElems: 4 * (int64(cin) + int64(hidden) + 1) * int64(hidden),
		Out: tensor.MakeShape(
			tensor.D(DimSample, ss.Size(0), tensor.Sample),
			tensor.D(DimChannel, hidden, tensor.Parameter),
		),
	}
	return g.add(op)
}

// StackSteps assembles per-step 2D (sample, channel) outputs into a
// (sample, length, channel) sequence tensor; e.g. encoder LSTM states
// stacked for consumption by attention. All inputs must share a shape.
func (g *Graph) StackSteps(name string, steps ...*Op) *Op {
	if len(steps) == 0 {
		panic(fmt.Sprintf("graph: StackSteps %q needs inputs", name))
	}
	first := steps[0].Out
	if first.Rank() != 2 {
		panic(fmt.Sprintf("graph: StackSteps %q inputs must be 2D, got %v", name, first))
	}
	for _, s := range steps {
		if !s.Out.Equal(first) {
			panic(fmt.Sprintf("graph: StackSteps %q shape mismatch: %v vs %v", name, s.Out, first))
		}
	}
	op := &Op{
		Kind: Stack, Name: name, Inputs: append([]*Op{}, steps...),
		Out: tensor.MakeShape(
			tensor.D(DimSample, first.Size(0), tensor.Sample),
			tensor.D(DimLength, len(steps), tensor.Attribute),
			tensor.D(DimChannel, first.Size(1), tensor.Attribute),
		),
	}
	return g.add(op)
}

// AttentionStep adds a single-step attention layer: query is the decoder
// state (sample, hidden); memory is the encoder output sequence
// (sample, srclen, hidden).
func (g *Graph) AttentionStep(name string, query, memory *Op) *Op {
	qs, ms := query.Out, memory.Out
	if qs.Rank() != 2 || ms.Rank() != 3 {
		panic(fmt.Sprintf("graph: AttentionStep %q wants 2D query and 3D memory, got %v and %v", name, qs, ms))
	}
	if qs.Size(1) != ms.Size(2) {
		panic(fmt.Sprintf("graph: AttentionStep %q hidden mismatch: %d vs %d", name, qs.Size(1), ms.Size(2)))
	}
	hidden := qs.Size(1)
	op := &Op{
		Kind: Attention, Name: name, Inputs: []*Op{query, memory},
		InChannels: hidden,
		// Bilinear score weights + output projection.
		WeightElems: 2 * int64(hidden) * int64(hidden),
		Out: tensor.MakeShape(
			tensor.D(DimSample, qs.Size(0), tensor.Sample),
			tensor.D(DimChannel, hidden, tensor.Parameter),
		),
	}
	return g.add(op)
}

// SoftmaxClassifier adds a linear projection to vocab classes followed
// by softmax (the "softmax linear" layer of the paper's RNN models).
func (g *Graph) SoftmaxClassifier(name string, in *Op, classes int) *Op {
	is := in.Out
	if is.Rank() != 2 {
		panic(fmt.Sprintf("graph: SoftmaxClassifier %q input must be 2D, got %v", name, is))
	}
	cin := is.Size(1)
	op := &Op{
		Kind: Softmax, Name: name, Inputs: []*Op{in},
		InChannels:  cin,
		WeightElems: int64(cin)*int64(classes) + int64(classes),
		Out: tensor.MakeShape(
			tensor.D(DimSample, is.Size(0), tensor.Sample),
			tensor.D(DimChannel, classes, tensor.Parameter),
		),
	}
	return g.add(op)
}

// ConcatChannels concatenates 4D inputs along the channel dimension
// (inception modules).
func (g *Graph) ConcatChannels(name string, ins ...*Op) *Op {
	if len(ins) < 2 {
		panic(fmt.Sprintf("graph: ConcatChannels %q needs >= 2 inputs", name))
	}
	first := ins[0].Out
	total := 0
	for _, in := range ins {
		if in.Out.Rank() != first.Rank() {
			panic(fmt.Sprintf("graph: ConcatChannels %q rank mismatch", name))
		}
		for d := 0; d < first.Rank(); d++ {
			if d != 1 && in.Out.Size(d) != first.Size(d) {
				panic(fmt.Sprintf("graph: ConcatChannels %q dim %d mismatch: %v vs %v", name, d, in.Out, first))
			}
		}
		total += in.Out.Size(1)
	}
	dims := make([]tensor.Dim, first.Rank())
	copy(dims, first.Dims)
	dims[1] = tensor.D(DimChannel, total, tensor.Attribute)
	op := &Op{Kind: Concat, Name: name, Inputs: append([]*Op{}, ins...), ConcatDim: 1,
		Out: tensor.MakeShape(dims...)}
	return g.add(op)
}

// Add adds an element-wise residual addition of two equal-shaped inputs.
func (g *Graph) Add(name string, a, b *Op) *Op {
	if !a.Out.Equal(b.Out) {
		panic(fmt.Sprintf("graph: Add %q shape mismatch: %v vs %v", name, a.Out, b.Out))
	}
	op := &Op{Kind: Add, Name: name, Inputs: []*Op{a, b}, Out: a.Out}
	return g.add(op)
}

// Activation adds an element-wise nonlinearity.
func (g *Graph) Activation(name string, in *Op) *Op {
	op := &Op{Kind: Activation, Name: name, Inputs: []*Op{in}, Out: in.Out}
	return g.add(op)
}

// Flatten reshapes a 4D (sample, c, h, w) tensor into (sample, features).
// The feature dimension is an Attribute dimension: splitting it splits
// activations, not parameters.
func (g *Graph) Flatten(name string, in *Op) *Op {
	is := in.Out
	if is.Rank() != 4 {
		panic(fmt.Sprintf("graph: Flatten %q input must be 4D, got %v", name, is))
	}
	feats := is.Size(1) * is.Size(2) * is.Size(3)
	op := &Op{
		Kind: Flatten, Name: name, Inputs: []*Op{in},
		Out: tensor.MakeShape(
			tensor.D(DimSample, is.Size(0), tensor.Sample),
			tensor.D(DimChannel, feats, tensor.Attribute),
		),
	}
	return g.add(op)
}

// convExtent is the output extent of a convolution/pooling window of
// the given kernel, stride and padding over an input extent. It is only
// meaningful for a window that fits the padded input (kernel <= in +
// 2·pad): Go's division truncates toward zero, so a kernel up to
// stride-1 wider than that still gives an extent of 1.
func convExtent(in, kernel, stride, pad int) int { return (in+2*pad-kernel)/stride + 1 }

// convOut is convExtent for the builders, which panic on an empty
// output or a window wider than its padded input.
func convOut(in, kernel, stride, pad int) int {
	out := convExtent(in, kernel, stride, pad)
	if out <= 0 || kernel > in+2*pad {
		panic(fmt.Sprintf("graph: convolution output extent %d (in=%d kernel=%d stride=%d pad=%d)", out, in, kernel, stride, pad))
	}
	return out
}

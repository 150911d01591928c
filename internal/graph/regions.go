package graph

import (
	"fmt"

	"flexflow/internal/tensor"
)

// InputRegions computes, for each input tensor of op, the sub-region a
// task must read to produce the given output region (Section 4: "Given
// the output tensor of a task and its operation type, we can infer the
// necessary input tensors to execute each task"). Convolutions and
// pooling include the halo rows/columns implied by their receptive
// field; matrix multiplications need full reduction depth; concats remap
// the concatenated dimension to per-input coordinates.
//
// The returned slice is parallel to op.Inputs. Regions are expressed in
// each input tensor's own coordinate space and are clamped to it.
//
// The count is the kind's own — one region for single-input kinds, two
// for Add and Attention (and for an LSTM step with a previous state),
// one per input for Stack and Concat — not len(op.Inputs): Graph.Validate
// rejects an op wired with the wrong number of inputs by comparing the
// two.
func InputRegions(op *Op, out tensor.Region) []tensor.Region {
	regions := make([]tensor.Region, numInputRegions(op))
	for i := range regions {
		regions[i] = InputRegion(op, out, i, nil)
	}
	return regions
}

// numInputRegions is the number of input regions op's kind reads: the
// count InputRegions returns and InputRegionsSig folds.
func numInputRegions(op *Op) int {
	switch {
	case op.Kind == Input:
		return 0
	case op.Kind == Add || op.Kind == Attention || op.Kind == LSTM && len(op.Inputs) == 2:
		return 2
	case op.Kind == Stack || op.Kind == Concat:
		return len(op.Inputs)
	}
	return 1
}

// checkWiring rejects an op whose input count or tensor ranks are too
// small for InputRegion to index: each bound below is exactly what its
// kind's case reads. The builders always wire ops correctly, but a
// deserialized graph may not, and Graph.Validate must report it as an
// error before it calls InputRegions. Whether the regions then fit the
// inputs is Validate's own check.
func checkWiring(op *Op) error {
	// inputs is the fewest inputs the kind reads; out and in[i] are the
	// least ranks of the output and of input i.
	inputs, out, in := 0, 1, []int(nil)
	switch op.Kind {
	case Conv2D, Pool2D:
		inputs, out, in = 1, 4, []int{4}
	case MatMul, Softmax:
		inputs, in = 1, []int{2}
	case Embedding:
		out = 2
	case LSTM:
		inputs, in = 1, []int{2, 2}
	case Attention:
		inputs, in = 2, []int{2, 3}
	case Stack:
		out = 3
	case Concat:
		if op.ConcatDim < 0 || op.ConcatDim >= op.Out.Rank() {
			return fmt.Errorf("op %q concatenates along dim %d of a rank-%d output", op.Name, op.ConcatDim, op.Out.Rank())
		}
		for range op.Inputs {
			in = append(in, op.ConcatDim+1)
		}
	case Flatten:
		inputs, out, in = 1, 2, []int{4}
	}
	if len(op.Inputs) < inputs {
		return fmt.Errorf("op %q (%v) has %d inputs, needs %d", op.Name, op.Kind, len(op.Inputs), inputs)
	}
	if op.Out.Rank() < out {
		return fmt.Errorf("op %q (%v) has a rank-%d output, needs rank %d", op.Name, op.Kind, op.Out.Rank(), out)
	}
	for i, p := range op.Inputs {
		if i < len(in) && p.Out.Rank() < in[i] {
			return fmt.Errorf("op %q (%v) input %d has rank %d, needs rank %d", op.Name, op.Kind, i, p.Out.Rank(), in[i])
		}
	}
	if op.Kind == Conv2D || op.Kind == Pool2D {
		return checkWindow(op)
	}
	return nil
}

// checkWindow rejects a Conv2D/Pool2D op whose window the builders
// could not have emitted: a kernel or stride below 1, negative
// padding, a convolution over fewer than one input channel, a kernel
// wider than the padded input, or an output height/width other than
// the one convExtent derives from the input. A search over such an op
// prices windows that do not exist; a zero kernel, for one, sends the
// simulator past its fixpoint budget.
func checkWindow(op *Op) error {
	if op.KernelH < 1 || op.KernelW < 1 || op.StrideH < 1 || op.StrideW < 1 || op.PadH < 0 || op.PadW < 0 {
		return fmt.Errorf("op %q (%v) has kernel %dx%d, stride %dx%d, pad %dx%d: kernel and stride must be >= 1 and pad >= 0",
			op.Name, op.Kind, op.KernelH, op.KernelW, op.StrideH, op.StrideW, op.PadH, op.PadW)
	}
	if op.Kind == Conv2D && op.InChannels < 1 {
		return fmt.Errorf("op %q (%v) has %d input channels, needs >= 1", op.Name, op.Kind, op.InChannels)
	}
	in := op.Inputs[0].Out
	if op.KernelH > in.Size(2)+2*op.PadH || op.KernelW > in.Size(3)+2*op.PadW {
		return fmt.Errorf("op %q (%v) has a %dx%d kernel, wider than its %dx%d input padded by %dx%d",
			op.Name, op.Kind, op.KernelH, op.KernelW, in.Size(2), in.Size(3), op.PadH, op.PadW)
	}
	h := convExtent(in.Size(2), op.KernelH, op.StrideH, op.PadH)
	w := convExtent(in.Size(3), op.KernelW, op.StrideW, op.PadW)
	if op.Out.Size(2) != h || op.Out.Size(3) != w {
		return fmt.Errorf("op %q (%v) has a %dx%d output, but its window over the %dx%d input gives %dx%d",
			op.Name, op.Kind, op.Out.Size(2), op.Out.Size(3), in.Size(2), in.Size(3), h, w)
	}
	return nil
}

// InputRegion is InputRegions(op, out)[i]: the region of input i alone,
// with one interval per dimension written into iv's backing when its
// capacity suffices (allocated otherwise). A caller that reuses one
// buffer across tasks — the task-graph builder walks every consumer
// task of every edge — computes regions without allocating; the result
// aliases iv and is only valid until the buffer's next use.
func InputRegion(op *Op, out tensor.Region, i int, iv []tensor.Interval) tensor.Region {
	iv = iv[:0]
	switch op.Kind {
	case Conv2D:
		in := op.Inputs[0].Out
		iv = append(iv,
			out.Iv[0],
			tensor.Interval{Lo: 0, Hi: in.Size(1)}, // full input channels (reduction)
			receptive(out.Iv[2], op.KernelH, op.StrideH, op.PadH, in.Size(2)),
			receptive(out.Iv[3], op.KernelW, op.StrideW, op.PadW, in.Size(3)))
	case Pool2D:
		in := op.Inputs[0].Out
		iv = append(iv,
			out.Iv[0],
			out.Iv[1], // pooling is per-channel
			receptive(out.Iv[2], op.KernelH, op.StrideH, op.PadH, in.Size(2)),
			receptive(out.Iv[3], op.KernelW, op.StrideW, op.PadW, in.Size(3)))
	case MatMul, Softmax:
		in := op.Inputs[0].Out
		iv = append(iv, out.Iv[0], tensor.Interval{Lo: 0, Hi: in.Size(1)}) // full reduction depth
	case Embedding:
		// Need the token ids for our samples over the length slice.
		iv = append(iv, out.Iv[0], out.Iv[1])
	case LSTM:
		if i == 1 {
			prev := op.Inputs[1].Out
			iv = append(iv, out.Iv[0], tensor.Interval{Lo: 0, Hi: prev.Size(1)}) // full previous hidden state
			break
		}
		seq := op.Inputs[0].Out
		if seq.Rank() == 3 {
			iv = append(iv,
				out.Iv[0],
				tensor.Interval{Lo: op.Step, Hi: op.Step + 1},
				tensor.Interval{Lo: 0, Hi: seq.Size(2)}) // gates contract over full input channels
		} else {
			iv = append(iv, out.Iv[0], tensor.Interval{Lo: 0, Hi: seq.Size(1)})
		}
	case Attention:
		if i == 0 {
			q := op.Inputs[0].Out
			iv = append(iv, out.Iv[0], tensor.Interval{Lo: 0, Hi: q.Size(1)})
			break
		}
		m := op.Inputs[1].Out
		iv = append(iv, out.Iv[0], tensor.Interval{Lo: 0, Hi: m.Size(1)}, tensor.Interval{Lo: 0, Hi: m.Size(2)})
	case Stack:
		if out.Iv[1].Intersect(tensor.Interval{Lo: i, Hi: i + 1}).Empty() {
			iv = append(iv, tensor.Interval{}, tensor.Interval{})
			break
		}
		// The requested channel slice of input i's (sample, channel).
		iv = append(iv, out.Iv[0], out.Iv[2])
	case Concat:
		d := op.ConcatDim
		off := 0
		for _, in := range op.Inputs[:i] {
			off += in.Out.Size(d)
		}
		size := op.Inputs[i].Out.Size(d)
		iv = append(iv, out.Iv...)
		// Map the output interval back into this input's coordinates.
		seg := out.Iv[d].Intersect(tensor.Interval{Lo: off, Hi: off + size})
		iv[d] = tensor.Interval{Lo: seg.Lo - off, Hi: seg.Hi - off}
		if iv[d].Empty() {
			// Region is empty: this task reads nothing from input i.
			clear(iv)
		}
	case Add, Activation:
		iv = append(iv, out.Iv...)
	case Flatten:
		in := op.Inputs[0].Out
		c, h, w := in.Size(1), in.Size(2), in.Size(3)
		// Map the flat feature interval to a bounding region of (c,h,w).
		// The exact element set is not hyper-rectangular; the bounding
		// box is a conservative covering used for communication sizing.
		// The numeric executor gathers exact elements by index instead.
		feat := out.Iv[1]
		if feat.Len() == c*h*w {
			iv = append(iv, out.Iv[0], tensor.Interval{Lo: 0, Hi: c}, tensor.Interval{Lo: 0, Hi: h}, tensor.Interval{Lo: 0, Hi: w})
			break
		}
		cLo := feat.Lo / (h * w)
		cHi := (feat.Hi-1)/(h*w) + 1
		iv = append(iv, out.Iv[0], tensor.Interval{Lo: cLo, Hi: cHi}, tensor.Interval{Lo: 0, Hi: h}, tensor.Interval{Lo: 0, Hi: w})
		if cHi-cLo == 1 {
			// Within one channel plane we can tighten the h range too.
			rem := tensor.Interval{Lo: feat.Lo - cLo*h*w, Hi: feat.Hi - cLo*h*w}
			hLo := rem.Lo / w
			hHi := (rem.Hi-1)/w + 1
			iv[2] = tensor.Interval{Lo: hLo, Hi: hHi}
			if hHi-hLo == 1 {
				iv[3] = tensor.Interval{Lo: rem.Lo - hLo*w, Hi: rem.Hi - hLo*w}
			}
		}
	default:
		panic(fmt.Sprintf("graph: InputRegions for unknown kind %v", op.Kind))
	}
	return tensor.Region{Iv: iv}
}

// receptive maps an output interval through a conv/pool geometry to the
// input rows/cols it reads, clamped to the input extent. This is the
// halo math: adjacent output partitions need overlapping input slices.
func receptive(out tensor.Interval, kernel, stride, pad, inSize int) tensor.Interval {
	lo := out.Lo*stride - pad
	hi := (out.Hi-1)*stride - pad + kernel
	return tensor.Interval{Lo: lo, Hi: hi}.Clamp(inSize)
}

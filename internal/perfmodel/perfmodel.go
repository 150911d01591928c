// Package perfmodel estimates the execution time of DNN operator tasks
// on devices. It substitutes for the cuDNN/cuBLAS micro-benchmarks the
// paper runs on real GPUs (docs/ARCHITECTURE.md): the AnalyticModel is a
// roofline-style device model standing in for the hardware, and the
// MeasuringEstimator reproduces FlexFlow's actual mechanism — measure an
// operation once per (kind, output size, device kind), cache the result,
// and reuse it for every task with the same signature (Section 5.1:
// "A task's exeTime is cached, and all future tasks with the same
// operation type and output size will use the cached value").
package perfmodel

import (
	"fmt"
	"sync"
	"time"

	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/tensor"
)

// Pass distinguishes the training phases a task can belong to.
type Pass uint8

// The training phases: Forward and Backward propagation, plus Update,
// which applies accumulated gradients to a weight shard.
const (
	Forward Pass = iota
	Backward
	Update
)

// String abbreviates the pass name ("fwd", "bwd", "upd").
func (p Pass) String() string {
	switch p {
	case Forward:
		return "fwd"
	case Backward:
		return "bwd"
	case Update:
		return "upd"
	default:
		return fmt.Sprintf("Pass(%d)", uint8(p))
	}
}

// Estimator predicts how long a task computing the given output region
// of op takes on dev. Implementations must be deterministic: the
// simulator assumes task times are predictable (assumption A1).
type Estimator interface {
	ExecTime(op *graph.Op, out tensor.Region, dev device.Device, pass Pass) time.Duration
}

// efficiency is the fraction of peak FLOPs an op kind sustains; dense
// GEMM-like kernels run near peak, memory-bound elementwise ops far
// from it. These stand in for the measured kernel efficiencies of
// cuDNN/cuBLAS.
var efficiency = map[graph.OpKind]float64{
	graph.Conv2D:     0.62,
	graph.MatMul:     0.72,
	graph.Softmax:    0.68,
	graph.LSTM:       0.58,
	graph.Attention:  0.55,
	graph.Pool2D:     0.25,
	graph.Embedding:  0.10,
	graph.Concat:     0.08,
	graph.Add:        0.10,
	graph.Activation: 0.10,
	graph.Flatten:    0.08,
	graph.Stack:      0.08,
}

// AnalyticModel is the synthetic hardware: a roofline model combining
// compute time (FLOPs over effective throughput), memory time (bytes
// moved over memory bandwidth) and a fixed kernel-launch overhead.
type AnalyticModel struct {
	// LaunchOverhead is the per-kernel fixed cost. The paper's simulator
	// assumes it is negligible (A4); the runtime emulator adds a larger
	// one to create realistic simulator/hardware divergence.
	LaunchOverhead time.Duration
}

// NewAnalyticModel returns the default synthetic hardware model.
func NewAnalyticModel() *AnalyticModel {
	return &AnalyticModel{LaunchOverhead: 4 * time.Microsecond}
}

var _ Estimator = (*AnalyticModel)(nil)

// ExecTime implements Estimator.
func (m *AnalyticModel) ExecTime(op *graph.Op, out tensor.Region, dev device.Device, pass Pass) time.Duration {
	if op == nil {
		panic("perfmodel: ExecTime on nil op")
	}
	if pass == Update {
		// SGD update: read + write each weight element once.
		bytes := float64(out.Volume() * tensor.ElemBytes * 3)
		sec := bytes / (dev.MemBWGBs * 1e9)
		return m.LaunchOverhead + time.Duration(sec*float64(time.Second))
	}
	var flops int64
	switch pass {
	case Forward:
		flops = op.ForwardFLOPs(out)
	case Backward:
		flops = op.BackwardFLOPs(out)
	}
	if flops == 0 {
		return 0
	}
	eff := efficiency[op.Kind]
	if eff == 0 {
		eff = 0.3
	}
	computeSec := float64(flops) / (dev.PeakGFLOPS * 1e9 * eff)

	bytes := float64(out.Bytes())
	for _, r := range graph.InputRegions(op, out) {
		bytes += float64(r.Bytes())
	}
	if op.HasWeights() {
		bytes += float64(op.WeightBytes())
	}
	if pass == Backward {
		bytes *= 2
	}
	memSec := bytes / (dev.MemBWGBs * 1e9)

	sec := computeSec
	if memSec > sec {
		sec = memSec
	}
	return m.LaunchOverhead + time.Duration(sec*float64(time.Second))
}

// cacheKey identifies an operator task signature. Execution time depends
// only on op kind, output size per dimension, input region extents,
// reduction depth, kernel geometry and the device model — never on
// tensor contents (A1).
//
// The input extents matter for more than accuracy: the cache is shared
// by concurrent search chains, and first-writer-wins on a key whose
// tasks could measure *different* values (same kind and output size,
// different input geometry — adjacent RNN steps, halo-clipped conv
// tasks) would make the cached value scheduling-dependent, breaking the
// search layer's worker-count determinism contract. With the inputs
// folded into the key, every task mapping to a key measures the same
// value, so fill order is irrelevant.
type cacheKey struct {
	kind             graph.OpKind
	pass             Pass
	model            string
	inChannels       int
	kernelH, kernelW int
	sizes            [4]int32 // output region extents, padded with zeros
	inputs           uint64   // FNV-1a over the input regions' extents
}

func keyFor(op *graph.Op, out tensor.Region, dev device.Device, pass Pass) cacheKey {
	k := cacheKey{
		kind: op.Kind, pass: pass, model: dev.Model,
		inChannels: op.InChannels, kernelH: op.KernelH, kernelW: op.KernelW,
	}
	// Extents are order-sensitive but regions from the same op kind
	// always order dims the same way; offsets don't matter (A1).
	n := out.Rank()
	if n > len(k.sizes) {
		n = len(k.sizes)
	}
	for i := 0; i < n; i++ {
		k.sizes[i] = int32(out.Iv[i].Len())
	}
	if pass != Update {
		// Update cost depends only on the output (weight-shard) volume.
		// InputRegionsSig hashes the lengths of graph.InputRegions'
		// regions without materializing them — this is the estimator's
		// cache-hit path, queried once per task on every task-graph
		// build (TestExecTimeCacheHitAllocFree).
		k.inputs = graph.InputRegionsSig(op, out)
	}
	return k
}

// Measurer runs a task signature on the hardware and reports its elapsed
// time. In the paper this is a real kernel launch repeated several
// times; here it is the runtime emulator's noisy clock (or, in tests,
// any function). It is called once per distinct signature.
type Measurer func(op *graph.Op, out tensor.Region, dev device.Device, pass Pass) time.Duration

// MeasuringEstimator measures each distinct task signature once (taking
// the average of Repeats runs) and serves every later query from its
// cache. This is the mechanism that makes building a task graph cost
// "tens of milliseconds" instead of a full profiling sweep.
type MeasuringEstimator struct {
	measure Measurer
	repeats int

	mu    sync.Mutex
	cache map[cacheKey]time.Duration

	hits, misses int64
}

// NewMeasuringEstimator wraps a measurer with a signature cache.
// repeats < 1 is treated as 1.
func NewMeasuringEstimator(m Measurer, repeats int) *MeasuringEstimator {
	if repeats < 1 {
		repeats = 1
	}
	return &MeasuringEstimator{measure: m, repeats: repeats, cache: make(map[cacheKey]time.Duration)}
}

var _ Estimator = (*MeasuringEstimator)(nil)

// ExecTime implements Estimator.
func (e *MeasuringEstimator) ExecTime(op *graph.Op, out tensor.Region, dev device.Device, pass Pass) time.Duration {
	key := keyFor(op, out, dev, pass)
	e.mu.Lock()
	if d, ok := e.cache[key]; ok {
		e.hits++
		e.mu.Unlock()
		return d
	}
	e.misses++
	e.mu.Unlock()

	// Measure outside the lock; concurrent misses on the same key just
	// measure twice and agree on the average.
	var total time.Duration
	for i := 0; i < e.repeats; i++ {
		total += e.measure(op, out, dev, pass)
	}
	d := total / time.Duration(e.repeats)

	e.mu.Lock()
	e.cache[key] = d
	e.mu.Unlock()
	return d
}

// Stats returns cache hit/miss counters (for the profiling-cost claims
// in Section 5).
func (e *MeasuringEstimator) Stats() (hits, misses int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.misses
}

// DistinctSignatures returns how many unique task signatures have been
// measured — the paper's observation (1): real DNNs use a small number
// of distinct operators.
func (e *MeasuringEstimator) DistinctSignatures() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

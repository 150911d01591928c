// Package flexflow is a Go reproduction of "Beyond Data and Model
// Parallelism for Deep Neural Networks" (Jia, Zaharia, Aiken; MLSys
// 2019): the SOAP search space of parallelization strategies, the
// execution simulator with its full and delta algorithms, and the MCMC
// execution optimizer, together with the baselines the paper evaluates
// against and an emulated distributed runtime.
//
// The top-level package is a facade over the internal packages; see
// README.md for a tour and docs/ARCHITECTURE.md for the architecture
// and the paper-to-module map.
//
// Every strategy-search algorithm — the paper's MCMC optimizer and the
// baselines it is evaluated against (exhaustive DFS with pruning, the
// OptCNN dynamic program, REINFORCE device placement, local-descent
// polishing) — is an Optimizer: one context-driven contract constructed
// by name from a registry. A minimal end-to-end use:
//
//	g := flexflow.NewGraph("mlp")
//	x := g.Input4D("images", 64, 3, 32, 32)
//	c := g.Conv2D("conv1", x, 32, 3, 3, 1, 1, 1, 1)
//	f := g.Flatten("flat", c)
//	g.Dense("fc", f, 128)
//
//	topo := flexflow.NewSingleNode(4, "P100")
//	opt, _ := flexflow.GetOptimizer("mcmc")
//	res, err := opt.Optimize(ctx, flexflow.Problem{Graph: g, Topology: topo},
//		flexflow.OptimizeOptions{MaxIters: 2000})
//	if err == nil {
//		fmt.Println("best per-iteration time:", res.BestCost)
//	}
//
// Cancelling ctx (a ^C handler, a deadline) stops the search promptly
// and returns the best strategy found so far; OptimizeOptions.OnEvent
// streams best-so-far progress while the search runs; and MCMC budgets
// are charged in deterministic virtual time, so a budgeted run replays
// bit-identically for any worker count. Budgets are priced by a cost
// profile: Calibrate fits one from measured proposal costs,
// SetCostProfile installs it (and Save/LoadCostProfile persist it), so
// a virtual budget of N seconds tracks wall-clock N seconds on the
// calibrated machine.
//
// All parallelism — MCMC chains, DFS subtrees, REINFORCE rollouts,
// Neighborhood sweeps, experiment cells — runs on one process-wide
// worker pool sized by SetWorkers (default: all CPUs). Nested fan-out
// composes under that single bound without deadlocking, and results
// never depend on the pool size; docs/CONCURRENCY.md documents the
// concurrency and determinism contract.
package flexflow

import (
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/exec"
	"flexflow/internal/graph"
	"flexflow/internal/memory"
	"flexflow/internal/models"
	"flexflow/internal/par"
	"flexflow/internal/perfmodel"
	"flexflow/internal/runtime"
	"flexflow/internal/search"
	"flexflow/internal/sim"
	"flexflow/internal/taskgraph"
	"flexflow/internal/viz"
)

// Core model/machine types.
type (
	// Graph is an operator graph (Section 3.1).
	Graph = graph.Graph
	// Op is an operation node of the graph.
	Op = graph.Op
	// Topology is a device topology D = (D_N, D_E).
	Topology = device.Topology
	// Device is a compute device.
	Device = device.Device
	// Strategy maps every operation to a parallelization configuration.
	Strategy = config.Strategy
	// Config is one operation's parallelization configuration.
	Config = config.Config
	// Metrics aggregates per-strategy statistics (transfers, compute).
	Metrics = taskgraph.Metrics
	// Estimator predicts task execution times.
	Estimator = perfmodel.Estimator
)

// NewGraph creates an empty operator graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// SetWorkers sizes the process-wide worker pool every parallel loop in
// this package draws from — optimizer chains and sweeps, the
// experiments harness, nested fan-out of any depth (n <= 0 resets to
// the number of CPUs). It returns the effective bound. The bound
// counts the calling goroutine: one Optimize or experiments run never
// executes more than n loop bodies at once, however deeply its levels
// nest, while each additional goroutine concurrently running its own
// top-level search adds itself on top of the pool's n-1 helpers. The
// bound only changes wall-clock time, never results: every search is
// bit-identical for every pool size (see docs/CONCURRENCY.md for the
// contract). Call it once at startup; it is safe, but rarely useful,
// to call concurrently with running searches.
func SetWorkers(n int) int { return par.SetWorkers(n) }

// WorkerBound reports the current process-wide worker bound set by
// SetWorkers (the number of CPUs if never set).
func WorkerBound() int { return par.WorkerBound() }

// NewSingleNode builds a single machine with n GPUs ("P100" or "K80").
func NewSingleNode(gpus int, model string) *Topology { return device.NewSingleNode(gpus, model) }

// NewP100Cluster builds the paper's P100 cluster (Figure 6a) with the
// given node count (4 GPUs per node, NVLink intra-node, EDR IB across).
func NewP100Cluster(nodes int) *Topology { return device.NewP100Cluster(nodes) }

// NewK80Cluster builds the paper's K80 cluster (Figure 6b).
func NewK80Cluster(nodes int) *Topology { return device.NewK80Cluster(nodes) }

// NewEstimator returns the default performance model: a measuring
// estimator (one measurement per distinct task signature, cached — the
// paper's profiling flow) over the synthetic analytic device model.
func NewEstimator() Estimator {
	return perfmodel.NewMeasuringEstimator(perfmodel.NewAnalyticModel().ExecTime, 1)
}

// Baseline strategies.

// DataParallel returns the default strategy of existing frameworks.
func DataParallel(g *Graph, topo *Topology) *Strategy { return config.DataParallel(g, topo) }

// ModelParallel returns whole-op placement round-robin over GPUs.
func ModelParallel(g *Graph, topo *Topology) *Strategy { return config.ModelParallel(g, topo) }

// ExpertDesigned returns the expert-designed strategy the paper
// benchmarks (one-weird-trick for CNNs, the GNMT scheme for RNNs).
func ExpertDesigned(g *Graph, topo *Topology) *Strategy { return config.Expert(g, topo) }

// Model builds one of the paper's benchmark DNNs ("alexnet",
// "inception-v3", "resnet-101", "rnntc", "rnnlm", "nmt", "lenet") at its
// paper-scale batch size and unroll length.
func Model(name string) (*Graph, error) {
	spec, err := models.Get(name)
	if err != nil {
		return nil, err
	}
	return spec.BuildPaper(), nil
}

// ModelScaled builds a benchmark DNN with batch/steps divided by factor
// (for quick experiments).
func ModelScaled(name string, factor int) (*Graph, error) {
	spec, err := models.Get(name)
	if err != nil {
		return nil, err
	}
	return spec.BuildScaled(factor), nil
}

// Simulate predicts the per-iteration execution time of a strategy with
// the execution simulator and reports strategy metrics.
func Simulate(g *Graph, topo *Topology, s *Strategy) (time.Duration, Metrics) {
	return search.Evaluate(g, topo, NewEstimator(), s, taskgraph.Options{})
}

// EmulateHardware runs one training iteration of the strategy on the
// emulated distributed runtime (noisy task times, dispatch overhead,
// imperfect bandwidth) and returns the "measured" iteration time — the
// ground truth the simulator is validated against in Figure 11.
func EmulateHardware(g *Graph, topo *Topology, s *Strategy, seed int64) time.Duration {
	tg := taskgraph.Build(g, topo, s, NewEstimator(), taskgraph.Options{})
	return runtime.Execute(tg, runtime.DefaultOptions(seed)).Makespan
}

// VerifyStrategy numerically executes the forward pass under the
// strategy (real float32 kernels, tasks restricted to their inferred
// input regions) and confirms it equals the unpartitioned computation.
func VerifyStrategy(g *Graph, s *Strategy) error { return exec.Check(g, s) }

// CriticalPath returns the dependency-chain lower bound of a strategy's
// iteration time (no schedule can beat it).
func CriticalPath(g *Graph, topo *Topology, s *Strategy) time.Duration {
	tg := taskgraph.Build(g, topo, s, NewEstimator(), taskgraph.Options{})
	return sim.CriticalPathLowerBound(tg)
}

// CheckMemory verifies the strategy's per-device training footprint
// (weights, gradients, retained activations) fits every device's
// capacity. The returned error names the first overflowing device.
func CheckMemory(g *Graph, topo *Topology, s *Strategy) error {
	return memory.Check(g, topo, s)
}

// MemoryFootprint returns per-device training memory usage in bytes.
func MemoryFootprint(g *Graph, topo *Topology, s *Strategy) map[int]int64 {
	out := map[int]int64{}
	for dev, u := range memory.Footprint(g, topo, s) {
		out[dev] = u.Total()
	}
	return out
}

// RenderTimeline simulates the strategy and renders its per-device
// schedule as an ASCII Gantt chart (the textual Figure 5).
func RenderTimeline(g *Graph, topo *Topology, s *Strategy, width int, showLinks bool) string {
	tg := taskgraph.Build(g, topo, s, NewEstimator(), taskgraph.Options{})
	st := sim.NewState(tg)
	st.Simulate()
	return viz.Timeline(st, viz.Options{Width: width, ShowLinks: showLinks})
}

// ExportStrategy serializes a strategy as JSON (op-name keyed, stable
// across graph rebuilds).
func ExportStrategy(g *Graph, s *Strategy) ([]byte, error) {
	return config.MarshalStrategy(g, s)
}

// ImportStrategy parses a strategy exported by ExportStrategy and
// validates it against the graph and topology.
func ImportStrategy(data []byte, g *Graph, topo *Topology) (*Strategy, error) {
	return config.UnmarshalStrategy(data, g, topo)
}

// ExportGraph serializes an operator graph as JSON — the wire format
// the strategy server (cmd/flexflowd) accepts for custom graphs; see
// docs/SERVER.md. Op names must be unique (the model builders
// guarantee this).
func ExportGraph(g *Graph) ([]byte, error) { return config.MarshalGraph(g) }

// ImportGraph parses a graph exported by ExportGraph and validates its
// structural invariants.
func ImportGraph(data []byte) (*Graph, error) { return config.UnmarshalGraph(data) }

// ExportTopology serializes a device topology as JSON — the wire
// format the strategy server accepts for custom machines.
func ExportTopology(t *Topology) ([]byte, error) { return config.MarshalTopology(t) }

// ImportTopology parses a topology exported by ExportTopology and
// validates it (connectivity, positive bandwidths).
func ImportTopology(data []byte) (*Topology, error) { return config.UnmarshalTopology(data) }

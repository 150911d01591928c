package search

import (
	"context"
	"math"
	"math/rand"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/par"
	"flexflow/internal/perfmodel"
	"flexflow/internal/sim"
	"flexflow/internal/taskgraph"
)

// ReinforceOptions configure the REINFORCE device-placement baseline
// (Mirhoseini et al. [33]): a policy-gradient learner over model-
// parallel placements — one device per operation, no intra-op
// parallelism, which is exactly the search space the paper credits it
// with (Figure 1: parallelism dimension "O").
type ReinforceOptions struct {
	Episodes  int     // placement samples drawn
	BatchSize int     // samples per gradient step
	LR        float64 // policy learning rate
	Seed      int64
	// Workers caps the share of the process-wide worker pool a batch's
	// episode rollouts may use (0 = the pool's full bound; see
	// par.SetWorkers). Rollouts follow the same determinism recipe as
	// the MCMC chains: episode e draws from a private RNG seeded by
	// (Seed, e), each rollout samples from the batch-start policy
	// snapshot and owns its task graph and simulator state, and results
	// merge in episode order — so the learner is bit-identical for
	// every Workers value and every pool size.
	Workers int
	// OnEvent, when non-nil, receives one progress event per gradient
	// batch (Chain = batch index, Iter = episodes completed).
	OnEvent func(ProgressEvent)
}

// DefaultReinforceOptions mirror the small-scale settings of Section
// 8.2.3 (four GPUs on a single node).
func DefaultReinforceOptions() ReinforceOptions {
	return ReinforceOptions{Episodes: 600, BatchSize: 10, LR: 0.15, Seed: 1}
}

// ReinforceResult reports the best placement the learner found.
type ReinforceResult struct {
	Best     *config.Strategy
	BestCost time.Duration
	Episodes int
}

// Reinforce learns a per-op softmax policy over devices with the
// REINFORCE gradient (reward = negative simulated iteration time,
// baseline = batch mean) and returns the best placement sampled. In the
// paper this took 12-27 hours of real executions; with the simulator as
// reward oracle it finishes in seconds, but the search space is
// unchanged — which is why FlexFlow still beats it (Figure 10a).
//
// Episode rollouts within a gradient batch are independent — each
// samples placements from the batch-start policy — so they fan out over
// the worker pool; the gradient step itself is serial and processes
// episodes in order. Cancelling ctx stops the learner at the next batch
// boundary with the best placement sampled so far.
func Reinforce(ctx context.Context, g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, opts ReinforceOptions) ReinforceResult {
	// Normalize each unset field individually so a caller setting only
	// some options (a Seed, a Workers bound) keeps the rest.
	def := DefaultReinforceOptions()
	if opts.Episodes <= 0 {
		opts.Episodes = def.Episodes
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = def.BatchSize
	}
	if opts.LR == 0 {
		opts.LR = def.LR
	}
	if opts.Seed == 0 {
		opts.Seed = def.Seed
	}
	ops := g.ComputeOps()
	gpus := topo.GPUs()
	logits := make([][]float64, len(ops))
	for i := range logits {
		logits[i] = make([]float64, len(gpus))
	}
	if topo.NumDevices() > 0 {
		topo.Route(0, 0) // force the lazy route build before fanning out
	}

	type episode struct {
		choice []int
		strat  *config.Strategy
		cost   time.Duration
	}
	res := ReinforceResult{BestCost: 1<<62 - 1}

	for batch := 0; res.Episodes < opts.Episodes; batch++ {
		if cancelled(ctx) {
			break
		}
		n := opts.BatchSize
		if rem := opts.Episodes - res.Episodes; n > rem {
			n = rem
		}
		// Snapshot the policy once per batch: every rollout of the
		// batch samples from the same distribution regardless of which
		// worker runs it or in what order.
		probs := make([][]float64, len(ops))
		for i := range logits {
			probs[i] = softmax(logits[i])
		}
		eps := make([]episode, n)
		first := res.Episodes
		par.ForEach(opts.Workers, n, func(k int) {
			rng := rand.New(rand.NewSource(chainSeed(opts.Seed, first+k)))
			choice := make([]int, len(ops))
			s := config.NewStrategy(g)
			for i, op := range ops {
				choice[i] = sampleProbs(probs[i], rng)
				s.Set(op.ID, config.OnDevice(op, gpus[choice[i]]))
			}
			tg := taskgraph.Build(g, topo, s, est, taskgraph.Options{})
			eps[k] = episode{choice: choice, strat: s, cost: sim.NewState(tg).Simulate()}
		})
		// Merge and apply the policy-gradient step serially, in episode
		// order, so ties and the logit trajectory are deterministic.
		mean := 0.0
		for _, e := range eps {
			res.Episodes++
			if e.cost < res.BestCost {
				res.BestCost = e.cost
				res.Best = e.strat.Clone()
			}
			mean += -e.cost.Seconds()
		}
		mean /= float64(n)
		for _, e := range eps {
			adv := -e.cost.Seconds() - mean
			for i := range ops {
				p := softmax(logits[i])
				for d := range p {
					grad := -p[d]
					if d == e.choice[i] {
						grad += 1
					}
					logits[i][d] += opts.LR * adv * grad
				}
			}
		}
		emit(opts.OnEvent, ProgressEvent{
			Algorithm: "reinforce", Chain: batch, Iter: res.Episodes, BestCost: res.BestCost,
		})
	}
	return res
}

func softmax(logits []float64) []float64 {
	max := logits[0]
	for _, l := range logits {
		if l > max {
			max = l
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, l := range logits {
		out[i] = math.Exp(l - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// sampleProbs draws an index from an already-normalized distribution.
func sampleProbs(p []float64, rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for i, pi := range p {
		acc += pi
		if r < acc {
			return i
		}
	}
	return len(p) - 1
}

func sampleSoftmax(logits []float64, rng *rand.Rand) int {
	return sampleProbs(softmax(logits), rng)
}

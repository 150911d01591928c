package search

import (
	"context"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/perfmodel"
	"flexflow/internal/tensor"
)

func gridRegion(op *graph.Op, c *config.Config, k int) tensor.Region {
	return tensor.GridRegion(op.Out, c.Degrees, k)
}

// OptCNN implements the baseline of Jia et al. [25] as characterized in
// Section 8.2.3: it "assumes that different operations in an operator
// graph cannot be performed in parallel and estimates a DNN's execution
// time as the sum of the operations' computation time and
// synchronization time and the tensors' data transfer time", which
// admits a dynamic-programming solution over linear operator graphs.
//
// For linear graphs the DP is exact under that cost model. Non-linear
// graphs are outside OptCNN's domain; we process ops in topological
// order and fix each producer's configuration before its consumers (a
// faithful "linearized" extension that still cannot exploit inter-op
// parallelism — the gap Figure 10b measures).
//
// The context is polled between ops; a cancelled DP has no meaningful
// partial answer, so cancellation returns (nil, ctx.Err()).
func OptCNN(ctx context.Context, g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, enum config.EnumOptions) (*config.Strategy, error) {
	if g.IsLinear() {
		return optCNNChainDP(ctx, g, topo, est, enum)
	}
	return optCNNGreedyTopo(ctx, g, topo, est, enum)
}

// opCost is OptCNN's per-op term: the parallel computation time of the
// op (the slowest task, forward+backward) plus parameter
// synchronization time for replicated weights.
func opCost(op *graph.Op, c *config.Config, topo *device.Topology, est perfmodel.Estimator) time.Duration {
	var slowest time.Duration
	for k := 0; k < c.NumTasks(); k++ {
		region := gridRegion(op, c, k)
		dev := topo.Device(c.Devices[k])
		d := est.ExecTime(op, region, dev, perfmodel.Forward) +
			est.ExecTime(op, region, dev, perfmodel.Backward)
		if d > slowest {
			slowest = d
		}
	}
	return slowest + syncCost(op, c, topo)
}

// syncCost estimates ring all-reduce time for each replicated shard:
// 2*(n-1)/n of the shard over the slowest inter-replica path.
func syncCost(op *graph.Op, c *config.Config, topo *device.Topology) time.Duration {
	if !op.HasWeights() {
		return 0
	}
	w := op.Weights(c.Degrees)
	if w.Replicas <= 1 {
		return 0
	}
	// Distinct devices per shard: use the shard at grid origin as the
	// representative (equal-size partitions make shards symmetric).
	devs := map[int]bool{}
	for k := 0; k < c.NumTasks(); k++ {
		devs[c.Devices[k]] = true
	}
	if len(devs) <= 1 {
		return 0
	}
	bytes := 2 * w.Elems * tensor.ElemBytes * int64(w.Replicas-1) / int64(w.Replicas)
	var worst time.Duration
	prev := -1
	for d := range devs {
		if prev >= 0 {
			if t := topo.Route(prev, d).TransferTime(bytes); t > worst {
				worst = t
			}
		}
		prev = d
	}
	return worst
}

// edgeCost is OptCNN's transfer term between a producer config and a
// consumer config: transfers grouped per link, the busiest link's time.
func edgeCost(prod *graph.Op, pc *config.Config, cons *graph.Op, cc *config.Config, inputIdx int, topo *device.Topology) time.Duration {
	perLink := map[int]int64{}
	prodRegions := tensor.Partition(prod.Out, pc.Degrees)
	var buf [4]tensor.Interval
	for ck, outRegion := range tensor.Partition(cons.Out, cc.Degrees) {
		need := graph.InputRegion(cons, outRegion, inputIdx, buf[:0])
		if need.Empty() {
			continue
		}
		for pk, region := range prodRegions {
			if pc.Devices[pk] == cc.Devices[ck] {
				continue
			}
			vol := region.IntersectVolume(need)
			if vol == 0 {
				continue
			}
			path := topo.Route(pc.Devices[pk], cc.Devices[ck])
			perLink[path.BottleneckLink] += vol * tensor.ElemBytes
		}
	}
	var worst time.Duration
	for link, bytes := range perLink {
		l := topo.Links[link]
		p := device.Path{BWGBs: l.BWGBs, Latency: l.Latency}
		// Forward activation + backward gradient over the same link.
		if t := 2 * p.TransferTime(bytes); t > worst {
			worst = t
		}
	}
	return worst
}

func optCNNChainDP(ctx context.Context, g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, enum config.EnumOptions) (*config.Strategy, error) {
	ops := g.ComputeOps()
	if len(ops) == 0 {
		// Nothing to configure: the empty strategy, as Exhaustive returns.
		return config.NewStrategy(g), nil
	}
	cands := make([][]*config.Config, len(ops))
	for i, op := range ops {
		cands[i] = config.Enumerate(op, topo, enum)
	}
	const inf = time.Duration(1<<62 - 1)
	// dp[i][j]: best cost of configuring ops[0..i] with ops[i] using
	// candidate j. back[i][j] is the argmin predecessor candidate.
	dp := make([][]time.Duration, len(ops))
	back := make([][]int, len(ops))
	for i, op := range ops {
		if cancelled(ctx) {
			return nil, ctx.Err()
		}
		dp[i] = make([]time.Duration, len(cands[i]))
		back[i] = make([]int, len(cands[i]))
		// Index of the compute producer among op.Inputs, if any.
		prodIdx := -1
		var prod *graph.Op
		for idx, in := range op.Inputs {
			if in.Kind != graph.Input {
				prodIdx, prod = idx, in
				break
			}
		}
		for j, c := range cands[i] {
			node := opCost(op, c, topo, est)
			if i == 0 || prod == nil {
				dp[i][j] = node
				back[i][j] = -1
				continue
			}
			best := inf
			arg := 0
			for pj, pcfg := range cands[i-1] {
				t := dp[i-1][pj] + edgeCost(prod, pcfg, op, c, prodIdx, topo)
				if t < best {
					best, arg = t, pj
				}
			}
			dp[i][j] = best + node
			back[i][j] = arg
		}
	}
	// Trace back from the cheapest final candidate.
	last := len(ops) - 1
	bestJ := 0
	for j := range dp[last] {
		if dp[last][j] < dp[last][bestJ] {
			bestJ = j
		}
	}
	s := config.NewStrategy(g)
	for i := last; i >= 0; i-- {
		s.Set(ops[i].ID, cands[i][bestJ])
		bestJ = back[i][bestJ]
		if bestJ < 0 && i > 0 {
			// Chain broken by an op whose producer is an Input; restart
			// argmin at the previous level.
			bestJ = 0
			for j := range dp[i-1] {
				if dp[i-1][j] < dp[i-1][bestJ] {
					bestJ = j
				}
			}
		}
	}
	return s, nil
}

func optCNNGreedyTopo(ctx context.Context, g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, enum config.EnumOptions) (*config.Strategy, error) {
	s := config.NewStrategy(g)
	for _, op := range g.ComputeOps() {
		if cancelled(ctx) {
			return nil, ctx.Err()
		}
		cands := config.Enumerate(op, topo, enum)
		best := time.Duration(1<<62 - 1)
		var bestCfg *config.Config
		for _, c := range cands {
			cost := opCost(op, c, topo, est)
			for idx, in := range op.Inputs {
				if in.Kind == graph.Input {
					continue
				}
				cost += edgeCost(in, s.Config(in.ID), op, c, idx, topo)
			}
			if cost < best {
				best, bestCfg = cost, c
			}
		}
		s.Set(op.ID, bestCfg)
	}
	return s, nil
}

package experiments

import (
	"context"
	"fmt"

	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/models"
	"flexflow/internal/search"
)

// GlobalOptimality reproduces the first study of Section 8.4: on small
// executions (LeNet and a 2-step RNNLM variant on 4 devices) the global
// optimum is found by depth-first search with A*-style pruning, and the
// MCMC search discovers a strategy of the same cost.
func GlobalOptimality(ctx context.Context, scale Scale) *Table {
	t := &Table{
		ID:     "optimality-global",
		Title:  "Global optimality study (Section 8.4): DFS+prune vs MCMC",
		Header: []string{"model", "space-size", "explored", "pruned", "optimal-cost", "mcmc-cost", "mcmc-found-optimum"},
	}
	topo := device.NewSingleNode(4, "P100")
	cases := []struct {
		name  string
		graph func() *graph.Graph
	}{
		{"lenet", func() *graph.Graph { return models.LeNet(16) }},
		{"rnnlm-2step", func() *graph.Graph { return models.RNNLM(16, 2) }},
	}
	// The exhaustive DFS dominates this experiment by orders of
	// magnitude, so the parallelism goes inside it (Workers on
	// ExhaustiveOptions) rather than across the two cases.
	rows := make([][]string, len(cases))
	for i, c := range cases {
		g := c.graph()
		est := estimator()
		ex := search.Exhaustive(ctx, g, topo, est, search.ExhaustiveOptions{
			Enum:               enumForScale(scale, topo),
			MaxCandidatesPerOp: 6,
			Workers:            scale.Workers,
		})
		opts := scale.searchOpts()
		opts.MaxIters = 4000
		res := search.MCMC(ctx, g, topo, est, search.Initials(g, topo, scale.Seed, false), opts)
		found := res.BestCost <= ex.BestCost
		rows[i] = []string{
			c.name,
			fmt.Sprintf("%.2e", ex.SpaceSize),
			fmt.Sprintf("%d", ex.Explored),
			fmt.Sprintf("%d", ex.Pruned),
			ms(ex.BestCost), ms(res.BestCost),
			fmt.Sprintf("%v", found),
		}
	}
	t.Rows = append(t.Rows, rows...)
	t.Notes = append(t.Notes,
		"the exhaustive space is restricted to 6 canonical candidates per op (the paper restricted to ~1e11 strategies)",
		"mcmc-found-optimum means MCMC matched or beat the restricted-space optimum")
	return t
}

// LocalOptimality reproduces the second study of Section 8.4: the
// strategies returned by the search are locally optimal — no single-op
// configuration change improves them — for the benchmarks on small
// device counts.
func LocalOptimality(ctx context.Context, scale Scale, modelNames []string, deviceCounts []int) *Table {
	t := &Table{
		ID:     "optimality-local",
		Title:  "Local optimality study (Section 8.4)",
		Header: []string{"model", "gpus", "best-cost", "neighbours-checked", "locally-optimal"},
	}
	if len(modelNames) == 0 {
		modelNames = []string{"lenet", "alexnet", "rnntc"}
	}
	if len(deviceCounts) == 0 {
		deviceCounts = []int{2, 4}
	}
	// One cell per (model, gpus) point, fanned out across the pool.
	type cell struct {
		name string
		g    *graph.Graph
		n    int
	}
	var cells []cell
	for _, name := range modelNames {
		spec, err := models.Get(name)
		if err != nil {
			panic(err)
		}
		g := scale.build(spec)
		for _, n := range deviceCounts {
			cells = append(cells, cell{name, g, n})
		}
	}
	t.Rows = scale.rows(len(cells), func(i int) []string {
		c := cells[i]
		topo := device.NewSingleNode(c.n, "P100")
		est := estimator()
		opts := scale.searchOpts()
		opts.MaxIters = 3000
		res := search.MCMC(ctx, c.g, topo, est, search.Initials(c.g, topo, scale.Seed, true), opts)
		// The optimizer finishes with a local-descent pass (see
		// search.Polish), so the returned strategy is locally
		// optimal by construction; verify it anyway.
		polished, polishedCost := search.Polish(ctx, c.g, topo, est, res.Best, search.PolishOptions{Enum: enumForScale(scale, topo), Workers: scale.Workers})
		if polishedCost < res.BestCost {
			res.Best, res.BestCost = polished, polishedCost
		}
		best, improving, checked := search.Neighborhood(c.g, topo, est, res.Best, enumForScale(scale, topo), scale.Workers)
		locallyOpt := improving == nil || best >= res.BestCost
		return []string{
			c.name, fmt.Sprintf("%d", c.n), ms(res.BestCost),
			fmt.Sprintf("%d", checked), fmt.Sprintf("%v", locallyOpt),
		}
	})
	t.Notes = append(t.Notes, "paper: all returned strategies were locally optimal on 2/4/8 devices")
	return t
}

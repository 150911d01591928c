// Command flexflow searches for a parallelization strategy for one of
// the paper's benchmark DNNs on a chosen cluster and reports what it
// found, comparing against the data-parallel and expert baselines. The
// -algo flag selects any registered optimizer — the paper's MCMC search
// or one of its baselines — behind the same flow; -progress streams
// best-so-far improvements live; ^C cancels the search and reports the
// best strategy found so far.
//
// Budgeted searches (-budget) are charged in deterministic virtual
// time; -calibrate measures real proposal costs for -model on this
// machine and writes a fitted cost profile, and -cost-profile loads one
// so virtual seconds track wall seconds (a missing or invalid profile
// falls back to the built-in defaults with a warning).
//
// Examples:
//
//	flexflow -model nmt -cluster p100 -gpus 16 -iters 2000
//	flexflow -model inception-v3 -cluster k80 -gpus 4 -scale 8 -verbose
//	flexflow -model lenet -scale 16 -algo exhaustive -gpus 2
//	flexflow -model rnnlm -algo reinforce -progress
//	flexflow -calibrate -model lenet -scale 16 -cost-profile profile.json
//	flexflow -cost-profile profile.json -model nmt -budget 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"time"

	"flexflow"
)

func main() {
	var (
		model    = flag.String("model", "inception-v3", "benchmark model (alexnet, inception-v3, resnet-101, rnntc, rnnlm, nmt, lenet)")
		cluster  = flag.String("cluster", "p100", "cluster type: p100 or k80")
		gpus     = flag.Int("gpus", 4, "number of GPUs")
		scale    = flag.Int("scale", 8, "model scale divisor (1 = paper-scale batch/steps)")
		algo     = flag.String("algo", "mcmc", "optimizer: "+strings.Join(flexflow.Optimizers(), ", "))
		iters    = flag.Int("iters", 1000, "MCMC proposals per initial strategy (episodes for reinforce, rounds for polish)")
		budget   = flag.Duration("budget", 30*time.Second, "virtual-time search budget per chain (deterministic; 0 = none)")
		seed     = flag.Int64("seed", 1, "search seed")
		workers  = flag.Int("workers", 0, "size of the process-wide worker pool all search parallelism shares (0 = all CPUs; results are identical for any value)")
		progress = flag.Bool("progress", false, "stream best-so-far improvements while the search runs")
		verbose  = flag.Bool("verbose", false, "print the per-op configuration of the best strategy")
		export   = flag.String("export", "", "write the best strategy to this JSON file")
		importF  = flag.String("import", "", "evaluate a previously exported strategy instead of searching")
		timeline = flag.Bool("timeline", false, "render the best strategy's schedule as an ASCII Gantt chart")
		memCheck = flag.Bool("mem", false, "report per-device memory footprint of the best strategy")

		calibrate    = flag.Bool("calibrate", false, "measure proposal costs for -model at -scale, write the fitted cost profile to -cost-profile, and exit")
		costProfile  = flag.String("cost-profile", "", "virtual-time cost profile JSON: loaded before searching, or the output path with -calibrate (default cost-profile.json)")
		calibBatches = flag.Int("calib-batches", 0, "timed batches per calibration point (0 = default)")
	)
	flag.Parse()

	// One knob, one pool: every fan-out level inside the optimizer
	// (chains, subtrees, sweeps) shares this bound instead of
	// multiplying per level.
	flexflow.SetWorkers(*workers)

	// ^C cancels the context; every optimizer returns promptly with the
	// best strategy it had found, and the report below still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *calibrate {
		path := *costProfile
		if path == "" {
			path = "cost-profile.json"
		}
		prof, err := flexflow.Calibrate(ctx, flexflow.CalibrateOptions{
			Models:  []string{*model},
			Scale:   *scale,
			GPUs:    *gpus,
			Batches: *calibBatches,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := flexflow.SaveCostProfile(prof, path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("cost profile (%s) written to %s\n", prof.Describe(), path)
		return
	}
	if *costProfile != "" {
		desc, warn := flexflow.InstallCostProfile(*costProfile)
		if warn != nil {
			fmt.Fprintf(os.Stderr, "warning: %v; budgets fall back to the built-in cost defaults\n", warn)
		} else {
			fmt.Printf("cost profile: %s\n", desc)
		}
	}

	g, err := flexflow.ModelScaled(*model, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var topo *flexflow.Topology
	switch strings.ToLower(*cluster) {
	case "p100":
		if *gpus <= 4 {
			topo = flexflow.NewSingleNode(*gpus, "P100")
		} else {
			topo = flexflow.NewP100Cluster((*gpus + 3) / 4)
		}
	case "k80":
		if *gpus <= 4 {
			topo = flexflow.NewSingleNode(*gpus, "K80")
		} else {
			topo = flexflow.NewK80Cluster((*gpus + 3) / 4)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown cluster %q (want p100 or k80)\n", *cluster)
		os.Exit(1)
	}

	fmt.Printf("model: %s\n", g)
	fmt.Printf("cluster: %s with %d GPUs\n\n", topo.Name, len(topo.GPUs()))

	dp := flexflow.DataParallel(g, topo)
	dpTime, dpMetrics := flexflow.Simulate(g, topo, dp)
	fmt.Printf("data parallelism:   %-12v (%.1f MB transfers/iter)\n", dpTime, float64(dpMetrics.CommBytes)/1e6)

	ex := flexflow.ExpertDesigned(g, topo)
	exTime, exMetrics := flexflow.Simulate(g, topo, ex)
	fmt.Printf("expert-designed:    %-12v (%.1f MB transfers/iter)\n", exTime, float64(exMetrics.CommBytes)/1e6)

	var res flexflow.Result
	interrupted := false
	if *importF != "" {
		data, err := os.ReadFile(*importF)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s, err := flexflow.ImportStrategy(data, g, topo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cost, _ := flexflow.Simulate(g, topo, s)
		res = flexflow.Result{Best: s, BestCost: cost}
		fmt.Printf("imported strategy:  %-12v (from %s)\n", cost, *importF)
	} else {
		opt, err := flexflow.GetOptimizer(*algo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts := flexflow.OptimizeOptions{
			MaxIters: *iters, Budget: *budget, Seed: *seed, IncludeExpert: true,
		}
		if *progress {
			// Events arrive concurrently from the optimizer's workers;
			// serialize the printing and only report improvements.
			var mu sync.Mutex
			best := time.Duration(1<<62 - 1)
			opts.OnEvent = func(ev flexflow.ProgressEvent) {
				mu.Lock()
				defer mu.Unlock()
				if ev.BestCost < best {
					best = ev.BestCost
					fmt.Printf("progress: %s chain %d iter %d best %v\n", ev.Algorithm, ev.Chain, ev.Iter, ev.BestCost)
				}
			}
		}
		res, err = opt.Optimize(ctx, flexflow.Problem{Graph: g, Topology: topo}, opts)
		if err != nil {
			interrupted = true
			if res.Best == nil {
				fmt.Fprintf(os.Stderr, "search aborted before finding any strategy: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("search interrupted (%v): reporting the best strategy found so far\n", err)
		}
		fmt.Printf("search (%s): %d iterations in %v\n", res.Algorithm, res.Iters, res.SearchTime)
	}
	_, ffMetrics := flexflow.Simulate(g, topo, res.Best)
	fmt.Printf("found strategy:     %-12v (%.1f MB transfers/iter)\n\n", res.BestCost, float64(ffMetrics.CommBytes)/1e6)
	fmt.Printf("speedup vs data parallelism: %.2fx\n", float64(dpTime)/float64(res.BestCost))
	fmt.Printf("speedup vs expert-designed:  %.2fx\n", float64(exTime)/float64(res.BestCost))

	if *export != "" {
		data, err := flexflow.ExportStrategy(g, res.Best)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*export, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("strategy exported to %s\n", *export)
	}
	if *timeline {
		fmt.Println()
		fmt.Print(flexflow.RenderTimeline(g, topo, res.Best, 100, false))
	}
	if *memCheck {
		fmt.Println("\nper-device memory footprint:")
		fp := flexflow.MemoryFootprint(g, topo, res.Best, flexflow.MemoryModel{})
		for id := 0; id < topo.NumDevices(); id++ {
			if b, ok := fp[id]; ok {
				d := topo.Device(id)
				fmt.Printf("  %-14s %8.2f MB (capacity %.0f GB)\n", d.Name, float64(b)/1e6, d.MemGB)
			}
		}
		if err := flexflow.CheckMemory(g, topo, res.Best, flexflow.MemoryModel{}); err != nil {
			fmt.Printf("  WARNING: %v\n", err)
		} else {
			fmt.Println("  strategy fits on every device")
		}
	}

	if *verbose {
		fmt.Println("\nbest strategy (per op):")
		type row struct{ name, cfg string }
		var rows []row
		for _, op := range g.ComputeOps() {
			rows = append(rows, row{op.Name, res.Best.Config(op.ID).String()})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
		for _, r := range rows {
			fmt.Printf("  %-28s %s\n", r.name, r.cfg)
		}
	}
	if interrupted {
		os.Exit(130) // conventional exit code for SIGINT, after reporting
	}
}

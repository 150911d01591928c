// Command flexflowd serves the FlexFlow execution optimizer over HTTP:
// POST a graph (a model-zoo name or an inline graph payload) and a
// topology to /v1/optimize and get back the best parallelization
// strategy any registered algorithm finds, as JSON or as a live SSE
// progress stream. Identical requests are answered from a
// content-addressed strategy cache without re-running the search —
// sound because every search is deterministic (docs/CONCURRENCY.md) —
// and concurrent requests share the one process-wide worker pool under
// admission control. docs/SERVER.md documents the API.
//
// SIGINT/SIGTERM drain gracefully: new optimize requests are rejected,
// running searches get -drain-timeout to finish (then are cancelled and
// return their best-so-far), and the listener shuts down.
//
// Examples:
//
//	flexflowd -addr :8080
//	flexflowd -addr :8080 -max-inflight 8 -default-timeout 2m
//	flexflowd -cost-profile profile.json -workers 16
//
//	curl -s localhost:8080/v1/optimize -d '{"model":"lenet","scale":16,"gpus":4,"options":{"max_iters":500}}'
//	curl -sN -H 'Accept: text/event-stream' localhost:8080/v1/optimize -d '{"model":"nmt","cluster":"p100","nodes":4}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flexflow"
	"flexflow/internal/server"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		maxInflight    = flag.Int("max-inflight", 4, "max concurrently running searches; beyond it requests get 429")
		defaultTimeout = flag.Duration("default-timeout", time.Minute, "search deadline for requests that set no timeout_ms")
		maxTimeout     = flag.Duration("max-timeout", 10*time.Minute, "upper clamp on per-request deadlines")
		cacheSize      = flag.Int("cache-size", 256, "strategy cache entries (0 default, negative disables)")
		workers        = flag.Int("workers", 0, "size of the process-wide worker pool (0 = all CPUs)")
		costProfile    = flag.String("cost-profile", "", "fitted cost profile JSON to price virtual-time budgets (see flexflow -calibrate)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "how long running searches get to finish on shutdown")
		pprofAddr      = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	)
	flag.Parse()

	if *workers > 0 {
		flexflow.SetWorkers(*workers)
	}
	if *costProfile != "" {
		p, err := flexflow.LoadCostProfile(*costProfile)
		if err != nil {
			log.Fatalf("flexflowd: -cost-profile: %v", err)
		}
		flexflow.SetCostProfile(p)
		log.Printf("flexflowd: installed cost profile %s (fitted %s)", *costProfile, p.FittedAt)
	}

	if *pprofAddr != "" {
		// Profiling gets its own listener and mux, so the endpoints never
		// ride on the public API address and stay off unless asked for.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("flexflowd: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("flexflowd: pprof listener: %v", err)
			}
		}()
	}

	srv := server.New(server.Options{
		MaxInflight:    *maxInflight,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		CacheSize:      *cacheSize,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("flexflowd: listening on %s (workers=%d, max-inflight=%d)", *addr, flexflow.WorkerBound(), *maxInflight)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("flexflowd: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("flexflowd: draining (up to %s)...", *drainTimeout)

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("flexflowd: drain cut short: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("flexflowd: shutdown: %v", err)
	}
	fmt.Println("flexflowd: bye")
}

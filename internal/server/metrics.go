package server

import (
	"fmt"
	"net/http"
	"sync/atomic"
)

// metrics are the server's counters, exposed as plaintext
// `flexflowd_<name> <value>` lines on GET /metrics (the Prometheus
// text exposition shape, hand-rolled to stay dependency-free).
type metrics struct {
	// inflight gauges searches currently running; jobsTotal counts
	// searches ever started (cache hits and coalesced requests start
	// none); rejected counts 429s from admission control.
	inflight  atomic.Int64
	jobsTotal atomic.Int64
	rejected  atomic.Int64
	// cacheHits / cacheMisses count cache lookups (requests with
	// no_cache, or uncacheable ones, perform no lookup).
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	// indexHits / indexMisses count request-index lookups (a hit is
	// answered without decoding the body and also counts as a cache
	// hit; a known body whose strategy was since evicted counts as a
	// miss). Every request that reads its body performs one when
	// caching is enabled.
	indexHits   atomic.Int64
	indexMisses atomic.Int64
	// jobPanics counts searches that panicked (and answered 500).
	jobPanics atomic.Int64
	// proposals and searchNS accumulate every finished search's work;
	// their ratio is the served proposal throughput.
	proposals atomic.Int64
	searchNS  atomic.Int64
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	entries := 0
	if s.cache != nil {
		entries = s.cache.len()
	}
	proposals := s.met.proposals.Load()
	searchSec := float64(s.met.searchNS.Load()) / 1e9
	perSec := 0.0
	if searchSec > 0 {
		perSec = float64(proposals) / searchSec
	}
	fmt.Fprintf(w, "flexflowd_jobs_inflight %d\n", s.met.inflight.Load())
	fmt.Fprintf(w, "flexflowd_jobs_total %d\n", s.met.jobsTotal.Load())
	fmt.Fprintf(w, "flexflowd_jobs_rejected_total %d\n", s.met.rejected.Load())
	fmt.Fprintf(w, "flexflowd_cache_hits_total %d\n", s.met.cacheHits.Load())
	fmt.Fprintf(w, "flexflowd_cache_misses_total %d\n", s.met.cacheMisses.Load())
	fmt.Fprintf(w, "flexflowd_cache_entries %d\n", entries)
	fmt.Fprintf(w, "flexflowd_request_index_hits_total %d\n", s.met.indexHits.Load())
	fmt.Fprintf(w, "flexflowd_request_index_misses_total %d\n", s.met.indexMisses.Load())
	fmt.Fprintf(w, "flexflowd_job_panics_total %d\n", s.met.jobPanics.Load())
	fmt.Fprintf(w, "flexflowd_proposals_total %d\n", proposals)
	fmt.Fprintf(w, "flexflowd_proposals_per_sec %g\n", perSec)
}

// Package server implements flexflowd, the strategy service: an HTTP
// front end over the optimizer registry that turns the library's
// Optimize call into a long-running daemon. A request names a problem
// (a model-zoo graph or an inline graph payload, a built-in cluster or
// an inline topology) and an algorithm; the server runs the search
// under a per-request deadline and a per-request share of the one
// process-wide worker pool, streams progress over SSE when asked, and
// fronts everything with a content-addressed strategy cache keyed by
// flexflow.Fingerprint — the repo's determinism contract
// (docs/CONCURRENCY.md) is what makes a cached strategy a faithful
// stand-in for a re-run. docs/SERVER.md documents the endpoints,
// payloads and knobs; cmd/flexflowd is the binary.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"flexflow"
)

// Options configure a Server. The zero value serves with the defaults
// noted on each field.
type Options struct {
	// MaxInflight bounds concurrently running searches — the admission
	// control. Requests that would start a search beyond the bound are
	// rejected with 429 and a Retry-After header; cache hits and
	// requests coalesced onto an identical in-flight search are always
	// admitted (<= 0 means 4).
	MaxInflight int
	// DefaultTimeout is the search deadline applied when a request
	// does not name one via options.timeout_ms (0 means 60s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps the deadline a request may ask for (0 means
	// 10 minutes).
	MaxTimeout time.Duration
	// CacheSize bounds the strategy cache's entry count; least
	// recently used entries are evicted beyond it (0 means 256,
	// negative disables caching).
	CacheSize int
}

// Server is the flexflowd HTTP service. Create one with New, mount it
// as an http.Handler, and call Drain on shutdown. Its endpoints:
//
//	POST /v1/optimize   run (or answer from cache) one optimize request
//	GET  /v1/optimizers list the registered algorithm names
//	GET  /healthz       readiness (503 while draining)
//	GET  /metrics       plaintext counters (flexflowd_* )
type Server struct {
	opts Options
	mux  *http.ServeMux
	sem  chan struct{}

	draining atomic.Bool
	wg       sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job   // coalescable in-flight searches, by fingerprint
	running map[*job]struct{} // every in-flight search, for Drain cancellation
	// cache maps a fingerprint to the compact JSON body of its cache
	// hit (json.Marshal of the response with cached set), rendered once
	// when the search finished; index maps the SHA-256 of a request
	// body to the fingerprint those bytes decoded to. Both are nil when
	// caching is disabled.
	cache *lruCache[[]byte]
	index *lruCache[string]

	met metrics
}

// New builds a Server with the given options.
func New(opts Options) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4
	}
	if opts.DefaultTimeout <= 0 {
		opts.DefaultTimeout = time.Minute
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 10 * time.Minute
	}
	size := opts.CacheSize
	if size == 0 {
		size = 256
	}
	s := &Server{
		opts:    opts,
		sem:     make(chan struct{}, opts.MaxInflight),
		jobs:    map[string]*job{},
		running: map[*job]struct{}{},
	}
	if size > 0 {
		s.cache = newLRUCache[[]byte](size)
		s.index = newLRUCache[string](size)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("GET /v1/optimizers", s.handleOptimizers)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting new optimize requests (they get 503, and
// /healthz flips to 503 so load balancers rotate the instance out) and
// waits for in-flight searches to finish. If ctx expires first the
// remaining searches are cancelled — they return their best-so-far
// promptly per the Optimizer contract — and Drain returns ctx.Err()
// after they unwind.
func (s *Server) Drain(ctx context.Context) error {
	// Flag under mu: startJob registers (and wg.Add's) under the same
	// lock, so once the flag is visible no new search can join the
	// WaitGroup and Wait below races with nothing.
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for j := range s.running {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// job is one running search: the single flight every identical request
// coalesces onto. Waiters select on done and then read res/status/err;
// SSE waiters additionally subscribe to the progress fan-out.
type job struct {
	cancel context.CancelFunc
	done   chan struct{}

	// Written once by the runner before done closes.
	res    *optimizeResponse
	status int
	err    error

	mu   sync.Mutex
	subs []chan flexflow.ProgressEvent
}

// subscribe registers a progress listener. The channel is buffered and
// sends are dropped when it is full: progress is a lossy sample; the
// terminal result event is the authoritative outcome.
func (j *job) subscribe() chan flexflow.ProgressEvent {
	ch := make(chan flexflow.ProgressEvent, 64)
	j.mu.Lock()
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	return ch
}

// publish fans one optimizer progress event out to every subscriber.
// It is the job's OptimizeOptions.OnEvent callback, so it must be safe
// for concurrent use and must not block — both hold.
func (j *job) publish(ev flexflow.ProgressEvent) {
	j.mu.Lock()
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// handleOptimize serves POST /v1/optimize: cache lookup, coalescing
// onto an identical in-flight search, admission control, then either a
// plain JSON response or an SSE stream depending on the Accept header.
// A repeat of a body already seen is a hash of its bytes, two lookups
// (request index, then strategy cache) and one write of the stored
// body; any other cache hit is a request decode (which builds the
// graph), one fingerprint, one lookup and one write.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	stream := wantsSSE(r)

	var bodyKey string
	if s.index != nil {
		bodyKey = indexKey(body)
		if fp, ok := s.index.get(bodyKey); ok {
			if hit, ok := s.cache.get(fp); ok {
				s.met.indexHits.Add(1)
				s.met.cacheHits.Add(1)
				writeHit(w, stream, hit)
				return
			}
		}
		s.met.indexMisses.Add(1)
	}

	req, err := s.decodeRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	fp, fpErr := flexflow.Fingerprint(req.prob, req.algorithm, req.opts)
	// Only an unbudgeted fingerprint is a function of the body alone (and
	// the server's fixed Options): a budgeted one also hashes the
	// process-wide cost profile, which may change between two identical
	// bodies. So only clean, cacheable, unbudgeted bodies enter the index.
	if fpErr == nil && s.index != nil && !req.wire.NoCache && req.wire.Options.BudgetMS == 0 {
		s.index.put(bodyKey, fp)
	}
	// An uncacheable request (fpErr != nil — a budgeted one whose
	// installed cost profile does not marshal, say) still runs; it just
	// cannot be answered from or stored into the cache, nor coalesced.
	if fpErr == nil && s.cache != nil && !req.wire.NoCache {
		if hit, ok := s.cache.get(fp); ok {
			s.met.cacheHits.Add(1)
			writeHit(w, stream, hit)
			return
		}
		s.met.cacheMisses.Add(1)
	}

	var j *job
	coalesced := false
	if fpErr == nil && !req.wire.NoCache {
		s.mu.Lock()
		j, coalesced = s.jobs[fp], s.jobs[fp] != nil
		s.mu.Unlock()
	}
	if j == nil {
		select {
		case s.sem <- struct{}{}:
		default:
			s.met.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "optimizer at capacity; retry later")
			return
		}
		j = s.startJob(fp, fpErr == nil && !req.wire.NoCache, fpErr == nil, req)
		if j == nil {
			// Drain won the race after the entry check: give the slot
			// back and bounce.
			<-s.sem
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
	}

	if stream {
		s.streamJob(w, r, j, coalesced)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client went away. The search keeps running: it still
		// populates the cache and answers any coalesced waiters.
		return
	}
	if j.err != nil {
		writeError(w, j.status, j.err.Error())
		return
	}
	resp := *j.res
	resp.Coalesced = coalesced
	writeJSON(w, http.StatusOK, resp)
}

// indexKey is the request index's key: the SHA-256 of the body exactly
// as sent.
func indexKey(body []byte) string {
	sum := sha256.Sum256(body)
	return string(sum[:])
}

// writeHit answers a cache hit with the entry's stored body, as a JSON
// response or as an SSE stream's lone result frame.
func writeHit(w http.ResponseWriter, stream bool, body []byte) {
	if stream {
		streamResult(w, body)
	} else {
		writeBody(w, http.StatusOK, body)
	}
}

// startJob launches one search on its own goroutine, detached from any
// single client connection: its lifetime is the per-request deadline,
// not the socket, so a disconnecting leader neither kills coalesced
// waiters nor wastes the nearly-finished result. The caller has
// already acquired an admission slot. Returns nil if Drain raced the
// caller's entry check — registration and wg.Add happen under mu, the
// same lock Drain flags under, so Drain's Wait can never miss a job.
// A panicking optimizer fails only its own job: the leader and every
// coalesced waiter get a 500, its slot and registrations are released,
// and nothing is cached.
func (s *Server) startJob(fp string, dedup, store bool, req *request) *job {
	ctx, cancel := context.WithTimeout(context.Background(), req.timeout)
	j := &job{cancel: cancel, done: make(chan struct{})}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		cancel()
		return nil
	}
	if dedup {
		s.jobs[fp] = j
	}
	s.running[j] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()

	opts := req.opts
	opts.OnEvent = j.publish

	s.met.jobsTotal.Add(1)
	s.met.inflight.Add(1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				s.met.jobPanics.Add(1)
				log.Printf("flexflowd: optimizer %q panicked: %v\n%s", req.algorithm, p, debug.Stack())
				j.res, j.status, j.err = nil, http.StatusInternalServerError, fmt.Errorf("optimizer %q panicked: %v", req.algorithm, p)
			}
			cancel()
			s.mu.Lock()
			if dedup {
				delete(s.jobs, fp)
			}
			delete(s.running, j)
			s.mu.Unlock()
			<-s.sem
			s.met.inflight.Add(-1)
			s.wg.Done()
			close(j.done)
		}()
		j.res, j.status, j.err = s.run(ctx, fp, store, req, opts)
	}()
	return j
}

// run executes one search and shapes its outcome: a complete result is
// stored in the cache (when store is set); a deadline-cut result is
// returned with timed_out set but never cached, because a wall-clock
// truncation is not the deterministic full-search answer the
// fingerprint promises.
func (s *Server) run(ctx context.Context, fp string, store bool, req *request, opts flexflow.OptimizeOptions) (*optimizeResponse, int, error) {
	algorithm, prob := req.algorithm, req.prob
	opt, err := flexflow.GetOptimizer(algorithm)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	res, err := opt.Optimize(ctx, prob, opts)
	s.met.proposals.Add(int64(res.Iters))
	s.met.searchNS.Add(int64(res.SearchTime))
	if res.Best == nil {
		if err == nil {
			err = fmt.Errorf("optimizer %q produced no strategy", algorithm)
		}
		status := http.StatusInternalServerError
		if ctx.Err() != nil {
			status = http.StatusGatewayTimeout
		}
		return nil, status, err
	}
	sdata, serr := flexflow.ExportStrategy(prob.Graph, res.Best)
	if serr != nil {
		return nil, http.StatusInternalServerError, serr
	}
	resp := &optimizeResponse{
		Algorithm:    res.Algorithm,
		Fingerprint:  fp,
		BestCostNS:   int64(res.BestCost),
		Iters:        res.Iters,
		SearchTimeNS: int64(res.SearchTime),
		Strategy:     sdata,
	}
	if err != nil {
		resp.TimedOut = true
		return resp, http.StatusOK, nil
	}
	if store && s.cache != nil {
		hit := *resp
		hit.Cached = true
		body, err := json.Marshal(hit)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		s.cache.put(fp, body)
	}
	return resp, http.StatusOK, nil
}

// handleOptimizers serves GET /v1/optimizers.
func (s *Server) handleOptimizers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"optimizers": flexflow.Optimizers()})
}

// handleHealth serves GET /healthz: 200 while serving, 503 once
// draining so load balancers stop routing here.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"flexflow"
	"flexflow/internal/server"
)

// daemon is flexflowd mounted on a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	ln     net.Listener
	base   string
	client *http.Client
	served chan struct{}
}

// startDaemon builds a Server, serves it on 127.0.0.1 and waits until
// /healthz answers 200 over a fresh client connection.
func startDaemon(opts server.Options) (*daemon, error) {
	srv := server.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv}, ln: ln,
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
		}},
	}
	go func() {
		d.hs.Serve(ln)
		close(d.served)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	d.stop() // the health error below is the one to report
	return nil, fmt.Errorf("flexflowd did not become healthy within 10s")
}

// stop drains the searches, closes the listener and every connection,
// and waits for the serve loop to end.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Drain(ctx)
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	<-d.served
	if err != nil {
		return fmt.Errorf("stopping flexflowd: %w", err)
	}
	return nil
}

// measureServeSetup times server.New to the first healthy /healthz.
func measureServeSetup() (time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(server.Options{})
	if err != nil {
		return 0, err
	}
	at := time.Since(start)
	return at, d.stop()
}

// key names one catalogue request: an entry and a search seed.
type key struct {
	entry int
	seed  int64
}

// answer is the part of an optimize response the checks use.
type answer struct {
	Fingerprint  string          `json:"fingerprint"`
	Cached       bool            `json:"cached"`
	Coalesced    bool            `json:"coalesced"`
	TimedOut     bool            `json:"timed_out"`
	BestCostNS   int64           `json:"best_cost_ns"`
	SearchTimeNS int64           `json:"search_time_ns"`
	Strategy     json.RawMessage `json:"strategy"`
}

// reply is one completed request.
type reply struct {
	key     key
	latency time.Duration
	ans     answer
	raw     []byte
	known   bool // byte-identical to a checked earlier hit of the key
}

// mixer generates and sends the serve-mix request stream.
type mixer struct {
	spec    *serveSpec
	d       *daemon
	inline  []byte // ExportGraph payload of the inline entry's model
	graphs  map[string]*flexflow.Graph
	topo    *flexflow.Topology
	warm    int
	fresh   int64 // the last fresh seed handed out
	rounds  int
	tr      *tracer
	mu      sync.Mutex
	origins map[string]answer // fingerprint -> first answer that ran the search
	joined  []reply           // coalesced answers, checked after the stream
}

// newMixer prepares the catalogue's graphs and inline payloads.
func newMixer(spec *serveSpec, d *daemon, warm int, tr *tracer) (*mixer, error) {
	m := &mixer{spec: spec, d: d, warm: warm, tr: tr,
		graphs: map[string]*flexflow.Graph{}, origins: map[string]answer{},
		topo: flexflow.NewSingleNode(spec.GPUs, "P100")}
	for _, e := range spec.Entries {
		g := m.graphs[e.Model]
		if g == nil {
			var err error
			if g, err = flexflow.Model(e.Model); err != nil {
				return nil, err
			}
			m.graphs[e.Model] = g
		}
		if e.Inline {
			var err error
			if m.inline, err = flexflow.ExportGraph(g); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// body encodes the request of k.
func (m *mixer) body(k key) []byte {
	e := m.spec.Entries[k.entry]
	req := map[string]any{
		"gpus":    m.spec.GPUs,
		"options": map[string]any{"max_iters": m.spec.MaxIters, "seed": k.seed},
	}
	if e.Inline {
		req["graph"] = json.RawMessage(m.inline)
	} else {
		req["model"] = e.Model
	}
	data, _ := json.Marshal(req) // maps of strings, numbers and valid JSON cannot fail
	return data
}

// send posts one request and reads the whole response. With a known
// body for a repeat (the bytes of an earlier, checked cache hit of the
// same key), a byte-identical response is taken as that hit without
// decoding it, which keeps the client's share of the two cores small.
func (m *mixer) send(k key, body, known []byte) (reply, error) {
	trace := m.tr.newTrace()
	start := time.Now()
	resp, err := m.d.client.Post(m.d.base+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	m.tr.add("server.request", trace, 0, start, start.Add(lat))
	r := reply{key: k, latency: lat, raw: data}
	if known != nil && bytes.Equal(data, known) {
		r.ans.Cached, r.known = true, true
		return r, nil
	}
	if err := json.Unmarshal(data, &r.ans); err != nil {
		return reply{}, err
	}
	return r, nil
}

// check compares a reply with the first answer for its fingerprint:
// a cached or coalesced answer must carry the same strategy bytes and
// cost. The first answer that ran a search becomes the origin.
func (m *mixer) check(r reply) error {
	if r.known {
		return nil
	}
	if r.ans.TimedOut {
		return fmt.Errorf("%v: search timed out", r.key)
	}
	m.mu.Lock()
	if r.ans.Coalesced {
		// The search's leader may finish reading its answer after this
		// one: compare once the stream is over.
		m.joined = append(m.joined, r)
		m.mu.Unlock()
		return nil
	}
	origin, ok := m.origins[r.ans.Fingerprint]
	if !ok && !r.ans.Cached {
		m.origins[r.ans.Fingerprint] = r.ans
	}
	m.mu.Unlock()
	return sameAnswer(r, origin, ok)
}

// sameAnswer checks that a reply carries its origin's cost and strategy
// bytes; a cached or coalesced reply must have an origin.
func sameAnswer(r reply, origin answer, ok bool) error {
	if !ok {
		if r.ans.Cached || r.ans.Coalesced {
			return fmt.Errorf("%v: answered from cache or a shared search with no origin", r.key)
		}
		return nil
	}
	if origin.BestCostNS != r.ans.BestCostNS || !bytes.Equal(origin.Strategy, r.ans.Strategy) {
		return fmt.Errorf("%v: answer differs from the first answer for its fingerprint", r.key)
	}
	return nil
}

// verify finishes the checks once the stream is over: every coalesced
// answer carries its leader's bytes, and every answer that ran a search
// imports (ImportStrategy validates it against the graph and topology)
// and its fresh re-simulation matches best_cost_ns (see tally.resim).
func (m *mixer) verify(t *tally, byFP map[string]key) {
	for _, r := range m.joined {
		origin, ok := m.origins[r.ans.Fingerprint]
		if err := sameAnswer(r, origin, ok); err != nil {
			t.fail(err)
		}
	}
	for fp, a := range m.origins {
		k := byFP[fp]
		g := m.graphs[m.spec.Entries[k.entry].Model]
		err := func() error {
			s, err := flexflow.ImportStrategy(a.Strategy, g, m.topo)
			if err != nil {
				return err
			}
			c, _ := flexflow.Simulate(g, m.topo, s)
			return t.resim(time.Duration(a.BestCostNS), c)
		}()
		if err != nil {
			t.fail(err)
		}
	}
}

// warmup answers every entry at seeds 1..warm, so that the stream's
// repeats of them hit the cache.
func (m *mixer) warmup(t *tally) map[string]key {
	byFP := map[string]key{}
	for s := 1; s <= m.warm; s++ {
		for e := range m.spec.Entries {
			k := key{entry: e, seed: int64(s)}
			r, err := m.send(k, m.body(k), nil)
			if err == nil {
				err = m.check(r)
				byFP[r.ans.Fingerprint] = k
			}
			t.op(err)
		}
	}
	return byFP
}

// round is one round of the stream, sent in three phases that do not
// overlap: each connection's repeats of warm keys, both at once; the
// fresh requests one at a time on the first connection; and an
// optional coalescing pair sent on both connections at once. Hits
// never share the two cores with a search: a hit answered beside a
// search is slower, and the median would move with the share of hits
// that happen to be.
type round struct {
	reqs [2][]key
	cold []key
	pair *key
}

// plan draws the next round from the stream's RNG. Every round has the
// same make-up — RoundRequests repeats of warm keys per connection,
// ColdPerRound fresh requests, and a coalescing pair every
// CoalesceEvery rounds — and fresh requests take the catalogue entries
// in turn, so that runs differ only in which keys and seeds they draw.
func (m *mixer) plan(rng *rand.Rand) round {
	var r round
	freshKey := func() key {
		m.fresh++
		return key{entry: int(m.fresh % int64(len(m.spec.Entries))), seed: m.fresh}
	}
	for c := range r.reqs {
		for i := 0; i < m.spec.RoundRequests; i++ {
			r.reqs[c] = append(r.reqs[c], key{entry: rng.Intn(len(m.spec.Entries)), seed: int64(1 + rng.Intn(m.warm))})
		}
	}
	for i := 0; i < m.spec.ColdPerRound; i++ {
		r.cold = append(r.cold, freshKey())
	}
	if m.rounds++; m.rounds%m.spec.CoalesceEvery == 0 {
		k := freshKey()
		r.pair = &k
	}
	return r
}

// streamStats collects the measured stream. Hits and searches are
// also kept per catalogue entry, because entries answer at different
// speeds: a hit on the inline graph takes about four times one on a
// model name, and the median of all hits falls in the gap between the
// two, where a small change in the mix moves it far.
type streamStats struct {
	hits, nmtBest, overhead             []float64
	hitsBy, miss, leaders, leaderSearch map[int][]float64
	requests, coalesced                 int
	// rates holds each cycle's requests per second of its wall time.
	rates []float64
}

// stream runs closed-loop rounds on two connections until both the
// duration has passed and minHits cache hits were answered (or three
// times the duration, whichever is first).
func (m *mixer) stream(seed int64, duration time.Duration, minHits int, t *tally, byFP map[string]key) *streamStats {
	rng := rand.New(rand.NewSource(seed))
	m.fresh = 1_000_000 + deriveSeed(seed, -1)%1_000_000_000
	st := &streamStats{hitsBy: map[int][]float64{}, miss: map[int][]float64{}, leaders: map[int][]float64{}, leaderSearch: map[int][]float64{}}
	bodies := map[key][]byte{}
	known := map[key][]byte{}
	var mu sync.Mutex
	record := func(r reply, err error) {
		if err == nil {
			err = m.check(r)
		}
		t.op(err)
		if err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		st.requests++
		ms := ms(r.latency)
		e := r.key.entry
		switch {
		case r.ans.Cached:
			st.hits = append(st.hits, ms)
			st.hitsBy[e] = append(st.hitsBy[e], ms)
			if !r.known {
				known[r.key] = r.raw
			}
		default:
			st.miss[e] = append(st.miss[e], ms)
			if r.ans.Coalesced {
				st.coalesced++
				break
			}
			byFP[r.ans.Fingerprint] = r.key
			st.leaders[e] = append(st.leaders[e], r.latency.Seconds())
			st.leaderSearch[e] = append(st.leaderSearch[e], float64(r.ans.SearchTimeNS)/1e9)
			st.overhead = append(st.overhead, ms-float64(r.ans.SearchTimeNS)/1e6)
			if m.spec.Entries[e].Model == "nmt" {
				st.nmtBest = append(st.nmtBest, float64(r.ans.BestCostNS)/1e6)
			}
		}
	}
	// lookup returns a key's request body (kept for repeats) and the
	// bytes of its last checked hit.
	lookup := func(k key) ([]byte, []byte) {
		mu.Lock()
		defer mu.Unlock()
		if int(k.seed) > m.warm {
			return m.body(k), nil
		}
		b, ok := bodies[k]
		if !ok {
			b = m.body(k)
			bodies[k] = b
		}
		return b, known[k]
	}
	debug.FreeOSMemory()
	start := time.Now()
	// Throughput is sampled per cycle of CoalesceEvery rounds, the last
	// of which ends with a coalescing pair, so that every sample has
	// the same make-up: per-round samples would split into rounds with
	// and without a pair, and their median would jump between the two.
	cycleStart, cycleReqs := start, 0
	for {
		elapsed := time.Since(start)
		mu.Lock()
		enough := len(st.hits) >= minHits
		mu.Unlock()
		if (elapsed >= duration && enough) || elapsed >= 3*duration {
			break
		}
		r := m.plan(rng)
		var wg sync.WaitGroup
		for c := range r.reqs {
			wg.Add(1)
			go func(reqs []key) {
				defer wg.Done()
				for _, k := range reqs {
					body, prev := lookup(k)
					record(m.send(k, body, prev))
				}
			}(r.reqs[c])
		}
		wg.Wait()
		for _, k := range r.cold {
			record(m.send(k, m.body(k), nil))
		}
		if r.pair != nil {
			body := m.body(*r.pair)
			gate := make(chan struct{})
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-gate
					record(m.send(*r.pair, body, nil))
				}()
			}
			close(gate)
			wg.Wait()
		}
		if r.pair != nil {
			st.rates = append(st.rates, float64(st.requests-cycleReqs)/time.Since(cycleStart).Seconds())
			debug.FreeOSMemory()
			cycleStart, cycleReqs = time.Now(), st.requests
		}
	}
	if len(st.rates) == 0 {
		st.rates = append(st.rates, float64(st.requests-cycleReqs)/time.Since(cycleStart).Seconds())
	}
	return st
}

// metricsCounters reads flexflowd's /metrics counters.
func (d *daemon) metricsCounters() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// serveRun is the outcome of one serve-mix run.
type serveRun struct {
	setup []float64
	st    *streamStats
}

// runServe measures serve-mix: set-up repeats, then the request stream
// against one daemon after its warm-up, then the correctness checks of
// every answer that ran a search.
func runServe(w *workload, seed int64, seconds time.Duration, sz sizes, t *tally, tr *tracer) (_ *serveRun, _ map[string]float64, err error) {
	runStart := time.Now()
	r := &serveRun{}
	for i := 0; i < 20 || (i < 200 && time.Since(runStart) < seconds/40); i++ {
		d, err := measureServeSetup()
		t.op(err)
		if err != nil {
			return nil, nil, err
		}
		r.setup = append(r.setup, d.Seconds())
	}
	d, err := startDaemon(server.Options{CacheSize: 4096})
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	warm := w.Serve.WarmSeeds
	if sz.serveWarmSeeds > 0 {
		warm = sz.serveWarmSeeds
	}
	m, err := newMixer(w.Serve, d, warm, tr)
	if err != nil {
		return nil, nil, err
	}
	byFP := m.warmup(t)
	r.st = m.stream(seed, max(seconds-time.Since(runStart), seconds/4), sz.serveMinHits, t, byFP)
	counters, err := d.metricsCounters()
	if err != nil {
		return nil, nil, err
	}
	m.verify(t, byFP)
	return r, counters, nil
}

// metrics reduces a serve-mix run to the end-to-end metrics.
func (r *serveRun) metrics() map[string]float64 {
	return map[string]float64{
		"tq_s":        perEntry(r.st.leaders),
		"search_s":    perEntry(r.st.leaderSearch),
		"best_sim_ms": median(r.st.nmtBest),
		"setup_s":     median(r.setup),
		"hit_p50_ms":  perEntry(r.st.hitsBy),
		"miss_p50_ms": perEntry(r.st.miss),
		"req_per_s":   median(r.st.rates),
	}
}

// traceServe is the traced run of serve-mix: the set-up spans and layer
// replay of the catalogue problem cold requests search, the model
// build and the facade calls of a cached answer on every catalogue
// graph, and a traced
// request stream whose counts come from /metrics and the responses.
func traceServe(cat *catalogue, w *workload, seed int64, seconds time.Duration, sz sizes, tr *tracer, audit *tally) error {
	spec := w.Serve
	topo := flexflow.NewSingleNode(spec.GPUs, "P100")
	g, err := traceSetup(tr, spec.ReplayModel, topo)
	if err != nil {
		return err
	}
	p := &problem{g: g, topo: topo, initial: flexflow.DataParallel(g, topo)}
	n := spec.ReplayProposals
	if sz.replay > 0 {
		n = sz.replay
	}
	refSeed := cat.ReferenceSeeds[0]
	traceReplay(tr, p, deriveSeed(seed, 0), n, audit)
	target, err := cat.target(w, refSeed)
	if err != nil {
		return err
	}
	traceSearch(tr, &problem{g: g, topo: topo}, refSeed, spec.MaxIters, target)
	done := map[string]bool{}
	for _, e := range spec.Entries {
		if done[e.Model] {
			continue
		}
		done[e.Model] = true
		sp := tr.begin("models.build", tr.newTrace(), 0)
		eg, err := flexflow.Model(e.Model)
		tr.end(sp)
		if err != nil {
			return err
		}
		if err := traceFacade(tr, eg, topo, flexflow.DataParallel(eg, topo), 5); err != nil {
			return err
		}
	}
	var t tally
	run, counters, err := runServe(w, seed, seconds, sizes{serveWarmSeeds: sz.serveWarmSeeds}, &t, tr)
	if err != nil {
		return err
	}
	if t.failed > 0 {
		return fmt.Errorf("traced stream: %d of %d operations failed: %v", t.failed, t.attempted, t.errs)
	}
	tr.count("server.overhead_ms", median(run.st.overhead))
	tr.count("server.hit_p99_ms", percentile(run.st.hits, 99))
	tr.count("server.cache_hits", counters["flexflowd_cache_hits_total"])
	tr.count("server.cache_misses", counters["flexflowd_cache_misses_total"])
	tr.count("server.jobs", counters["flexflowd_jobs_total"])
	tr.count("server.rejected", counters["flexflowd_jobs_rejected_total"])
	tr.count("server.requests", float64(run.st.requests))
	tr.count("server.coalesced", float64(run.st.coalesced))
	tr.count("server.search_ms", 1e3*perEntry(run.st.leaderSearch))
	return nil
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flexflow"
)

// blockRelease gates the "blocktest" optimizer: it blocks until the
// channel closes (or its context expires), giving tests precise
// control over job lifetime. Each test that uses it installs a fresh
// channel before issuing requests.
var blockRelease chan struct{}

// blockingOptimizer is a test-only optimizer with controllable
// duration. It honors the Optimizer contract: on cancellation it
// returns promptly with a usable best-so-far strategy and ctx.Err().
type blockingOptimizer struct{}

func (blockingOptimizer) Name() string { return "blocktest" }

func (blockingOptimizer) Optimize(ctx context.Context, p flexflow.Problem, o flexflow.OptimizeOptions) (flexflow.Result, error) {
	select {
	case <-blockRelease:
	case <-ctx.Done():
	}
	return flexflow.Result{
		Algorithm:  "blocktest",
		Best:       flexflow.DataParallel(p.Graph, p.Topology),
		BestCost:   time.Millisecond,
		Iters:      1,
		SearchTime: time.Millisecond,
	}, ctx.Err()
}

// panicRelease gates the "panictest" optimizer, which panics once the
// channel closes: a stand-in for a bug inside Optimize.
var panicRelease chan struct{}

// panickingOptimizer is a test-only optimizer that panics on its job
// goroutine.
type panickingOptimizer struct{}

func (panickingOptimizer) Name() string { return "panictest" }

func (panickingOptimizer) Optimize(ctx context.Context, p flexflow.Problem, o flexflow.OptimizeOptions) (flexflow.Result, error) {
	<-panicRelease
	panic("panictest: deliberate")
}

func init() {
	flexflow.RegisterOptimizer("blocktest", func() flexflow.Optimizer { return blockingOptimizer{} })
	flexflow.RegisterOptimizer("panictest", func() flexflow.Optimizer { return panickingOptimizer{} })
}

// optBody builds a small real request: lenet/16 on 2 GPUs, few enough
// proposals to finish in well under a second.
func optBody(algorithm string, seed int64, extra string) string {
	return fmt.Sprintf(`{"model":"lenet","scale":16,"gpus":2,"algorithm":%q,
		"options":{"max_iters":60,"seed":%d,"timeout_ms":30000}%s}`, algorithm, seed, extra)
}

func postJSON(t *testing.T, ts *httptest.Server, body string) (*http.Response, optimizeResponse) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out optimizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, out
}

// postRaw posts an optimize request and returns the status and the
// response body as sent.
func postRaw(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// scrapeMetric reads one flexflowd_* counter off /metrics.
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v float64
		if _, err := fmt.Sscanf(sc.Text(), name+" %g", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// waitMetric polls a counter until it reaches want (tests that need to
// observe a job mid-flight before acting).
func waitMetric(t *testing.T, ts *httptest.Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if scrapeMetric(t, ts, name) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %g", name, want)
}

// TestOptimizeCachesRepeat is the core cache contract: the first
// request runs a search, the identical repeat is answered from the
// cache — same strategy bytes, no second search.
func TestOptimizeCachesRepeat(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	resp, first := postJSON(t, ts, optBody("mcmc", 7, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if first.Cached || first.Fingerprint == "" || len(first.Strategy) == 0 {
		t.Fatalf("bad first response: cached=%v fp=%q strategy=%d bytes",
			first.Cached, first.Fingerprint, len(first.Strategy))
	}
	g, err := flexflow.ModelScaled("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flexflow.ImportStrategy(first.Strategy, g, flexflow.NewSingleNode(2, "P100")); err != nil {
		t.Fatalf("returned strategy does not validate: %v", err)
	}

	resp, second := postJSON(t, ts, optBody("mcmc", 7, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	if !second.Cached {
		t.Fatal("identical repeat request was not answered from the cache")
	}
	if !bytes.Equal(first.Strategy, second.Strategy) || first.BestCostNS != second.BestCostNS {
		t.Fatal("cached response differs from the original")
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 1 {
		t.Fatalf("repeat request re-ran the search: jobs_total = %g", n)
	}
	if h := scrapeMetric(t, ts, "flexflowd_cache_hits_total"); h != 1 {
		t.Fatalf("cache_hits_total = %g", h)
	}
	if e := scrapeMetric(t, ts, "flexflowd_cache_entries"); e != 1 {
		t.Fatalf("cache_entries = %g", e)
	}
	if p := scrapeMetric(t, ts, "flexflowd_proposals_total"); p <= 0 {
		t.Fatalf("proposals_total = %g", p)
	}
}

// TestOptimizeMatchesLibrary is the differential check: the served
// result must be bit-identical to calling the library directly with
// the same options — the determinism the cache is built on.
func TestOptimizeMatchesLibrary(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	resp, got := postJSON(t, ts, optBody("mcmc", 11, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	g, err := flexflow.ModelScaled("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	topo := flexflow.NewSingleNode(2, "P100")
	opt, err := flexflow.GetOptimizer("mcmc")
	if err != nil {
		t.Fatal(err)
	}
	want, err := opt.Optimize(context.Background(),
		flexflow.Problem{Graph: g, Topology: topo},
		flexflow.OptimizeOptions{MaxIters: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got.BestCostNS != int64(want.BestCost) {
		t.Fatalf("served best cost %d != library %d", got.BestCostNS, int64(want.BestCost))
	}
	wantStrategy, err := flexflow.ExportStrategy(g, want.Best)
	if err != nil {
		t.Fatal(err)
	}
	// ExportStrategy indents; the response carries it compacted.
	var gotC, wantC bytes.Buffer
	if err := json.Compact(&gotC, got.Strategy); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantC, wantStrategy); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotC.Bytes(), wantC.Bytes()) {
		t.Fatal("served strategy differs from the library's")
	}
}

// TestInlineGraphHitsModelCache asserts the cache is content-addressed,
// not request-shape-addressed: an inline graph+topology payload that
// describes the same problem as a model/gpus request must hit the
// entry the model request populated.
func TestInlineGraphHitsModelCache(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	resp, first := postJSON(t, ts, optBody("mcmc", 5, ""))
	if resp.StatusCode != http.StatusOK || first.Cached {
		t.Fatalf("priming request: status %d cached %v", resp.StatusCode, first.Cached)
	}

	g, err := flexflow.ModelScaled("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	gdata, err := flexflow.ExportGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	tdata, err := flexflow.ExportTopology(flexflow.NewSingleNode(2, "P100"))
	if err != nil {
		t.Fatal(err)
	}
	inline := fmt.Sprintf(`{"graph":%s,"topology":%s,"algorithm":"mcmc",
		"options":{"max_iters":60,"seed":5,"timeout_ms":30000}}`, gdata, tdata)
	resp, second := postJSON(t, ts, inline)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline request: status %d", resp.StatusCode)
	}
	if !second.Cached {
		t.Fatal("inline form of the same problem missed the cache")
	}
	if !bytes.Equal(first.Strategy, second.Strategy) {
		t.Fatal("inline form got a different strategy")
	}

	// The same graph with different whitespace is new bytes, so the
	// request index misses and the body is decoded — but it is the same
	// graph, so the fingerprint and the cache entry are the same.
	var compact bytes.Buffer
	if err := json.Compact(&compact, gdata); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(compact.Bytes(), gdata) {
		t.Fatal("compacting the exported graph changed nothing; the test needs different bytes")
	}
	misses := scrapeMetric(t, ts, "flexflowd_request_index_misses_total")
	resp, third := postJSON(t, ts, fmt.Sprintf(`{"graph":%s,"topology":%s,"algorithm":"mcmc",
		"options":{"max_iters":60,"seed":5,"timeout_ms":30000}}`, compact.Bytes(), tdata))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-spaced inline request: status %d", resp.StatusCode)
	}
	if got := scrapeMetric(t, ts, "flexflowd_request_index_misses_total"); got != misses+1 {
		t.Fatalf("re-spaced inline graph: request index misses %g -> %g, want one more", misses, got)
	}
	if !third.Cached || third.Fingerprint != first.Fingerprint {
		t.Fatalf("re-spaced inline graph: cached %v, fingerprint %s, want a hit on %s",
			third.Cached, third.Fingerprint, first.Fingerprint)
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 1 {
		t.Fatalf("jobs_total = %g, want the one priming search", n)
	}
}

// TestHitBodyMatchesMiss pins the hit path's bytes: a cache hit writes
// the stored body, which equals the miss's body except for "cached",
// and an SSE hit's result frame carries those same stored bytes. The
// identical repeat is a request-index hit, which never decodes the body;
// a re-spaced repeat is an index miss that takes the decode path, and
// both answer with the same bytes.
func TestHitBodyMatchesMiss(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, miss := postRaw(t, ts, optBody("mcmc", 13, ""))
	if status != http.StatusOK {
		t.Fatalf("miss: status %d: %s", status, miss)
	}
	indexMisses := srv.met.indexMisses.Load()
	status, hit := postRaw(t, ts, optBody("mcmc", 13, ""))
	if status != http.StatusOK {
		t.Fatalf("hit: status %d: %s", status, hit)
	}
	if h := srv.met.indexHits.Load(); h != 1 {
		t.Fatalf("identical repeat: request index hits = %d, want 1", h)
	}
	if m := srv.met.indexMisses.Load(); m != indexMisses {
		t.Fatalf("identical repeat: request index misses %d -> %d, want it answered without a decode", indexMisses, m)
	}
	// Trailing whitespace makes new bytes for the same request: an index
	// miss that decodes and then hits the strategy cache.
	status, decoded := postRaw(t, ts, optBody("mcmc", 13, "")+" ")
	if status != http.StatusOK {
		t.Fatalf("decode-path hit: status %d: %s", status, decoded)
	}
	if m := srv.met.indexMisses.Load(); m != indexMisses+1 {
		t.Fatalf("re-spaced repeat: request index misses %d -> %d, want it to take the decode path", indexMisses, m)
	}
	if !bytes.Equal(hit, decoded) {
		t.Fatalf("index hit and decode-path hit differ:\n index  %s\n decode %s", hit, decoded)
	}
	if n := bytes.Count(miss, []byte(`"cached":false`)); n != 1 {
		t.Fatalf("miss body holds %d compact \"cached\":false fields: %s", n, miss)
	}
	want := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1)
	if !bytes.Equal(hit, want) {
		t.Fatalf("hit body differs from the miss body beyond \"cached\":\n miss %s\n hit  %s", miss, hit)
	}

	var out optimizeResponse
	if err := json.Unmarshal(hit, &out); err != nil {
		t.Fatal(err)
	}
	stored, ok := srv.cache.get(out.Fingerprint)
	if !ok {
		t.Fatal("no cache entry for the hit's fingerprint")
	}
	if !bytes.Equal(append(stored, '\n'), hit) {
		t.Fatal("JSON hit is not the stored body")
	}
	indexHits := srv.met.indexHits.Load()
	events := sseEvents(t, ts, optBody("mcmc", 13, ""))
	if len(events) != 1 || events[0][0] != "result" || events[0][1] != string(stored) {
		t.Fatalf("SSE hit frames %q, want one result frame carrying the stored body", events)
	}
	if h := srv.met.indexHits.Load(); h != indexHits+1 {
		t.Fatalf("SSE repeat: request index hits %d -> %d, want one more", indexHits, h)
	}
	decodedEvents := sseEvents(t, ts, optBody("mcmc", 13, "")+"  ")
	if h := srv.met.indexHits.Load(); h != indexHits+1 {
		t.Fatalf("re-spaced SSE repeat hit the request index (hits %d)", h)
	}
	if fmt.Sprint(decodedEvents) != fmt.Sprint(events) {
		t.Fatalf("SSE index hit %q and decode-path hit %q differ", events, decodedEvents)
	}
}

// TestJobPanic asserts a panicking optimizer fails only its own job:
// the leader and a coalesced waiter get a 500, nothing is cached, the
// admission slot is released so the daemon keeps answering, and Drain
// returns.
func TestJobPanic(t *testing.T) {
	panicRelease = make(chan struct{})
	srv := New(Options{MaxInflight: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	statuses := make(chan int, 2)
	post := func() {
		status, _ := postRaw(t, ts, optBody("panictest", 1, ""))
		statuses <- status
	}
	go post()
	waitMetric(t, ts, "flexflowd_jobs_inflight", 1)
	go post()
	// The joiner counts its cache miss just before it coalesces.
	waitMetric(t, ts, "flexflowd_cache_misses_total", 2)
	time.Sleep(50 * time.Millisecond)
	close(panicRelease)
	for i := 0; i < 2; i++ {
		if status := <-statuses; status != http.StatusInternalServerError {
			t.Fatalf("reply %d of the panicking search: status %d, want 500", i, status)
		}
	}
	if n := scrapeMetric(t, ts, "flexflowd_job_panics_total"); n != 1 {
		t.Fatalf("job_panics_total = %g", n)
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 1 {
		t.Fatalf("jobs_total = %g, want the one search both requests shared", n)
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_inflight"); n != 0 {
		t.Fatalf("jobs_inflight = %g after the panic", n)
	}
	if n := scrapeMetric(t, ts, "flexflowd_cache_entries"); n != 0 {
		t.Fatalf("a panicked search was cached: entries = %g", n)
	}

	// With MaxInflight 1, this only runs if the panic gave the slot back.
	if status, body := postRaw(t, ts, optBody("mcmc", 2, "")); status != http.StatusOK {
		t.Fatalf("request after the panic: status %d: %s", status, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain after a panicked search: %v", err)
	}
}

// sseEvents posts an optimize request with Accept: text/event-stream
// and returns the parsed (event, data) frames.
func sseEvents(t *testing.T, ts *httptest.Server, body string) [][2]string {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/optimize", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events [][2]string
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events = append(events, [2]string{event, strings.TrimPrefix(line, "data: ")})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// TestOptimizeSSE streams a search: at least one progress frame, then
// exactly one terminal result frame; the cached repeat streams a lone
// result frame with cached set.
func TestOptimizeSSE(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	events := sseEvents(t, ts, optBody("mcmc", 21, ""))
	var progress, results int
	var last optimizeResponse
	for _, ev := range events {
		switch ev[0] {
		case "progress":
			progress++
			var p progressJSON
			if err := json.Unmarshal([]byte(ev[1]), &p); err != nil {
				t.Fatalf("bad progress frame %q: %v", ev[1], err)
			}
			if p.Algorithm != "mcmc" {
				t.Fatalf("progress from %q", p.Algorithm)
			}
		case "result":
			results++
			if err := json.Unmarshal([]byte(ev[1]), &last); err != nil {
				t.Fatalf("bad result frame: %v", err)
			}
		default:
			t.Fatalf("unexpected event %q", ev[0])
		}
	}
	if progress == 0 || results != 1 {
		t.Fatalf("streamed %d progress / %d result frames", progress, results)
	}
	if last.Cached || len(last.Strategy) == 0 {
		t.Fatalf("bad streamed result: cached=%v strategy=%d bytes", last.Cached, len(last.Strategy))
	}

	events = sseEvents(t, ts, optBody("mcmc", 21, ""))
	if len(events) != 1 || events[0][0] != "result" {
		t.Fatalf("cached stream sent %d frames, first %q", len(events), events[0][0])
	}
	var cached optimizeResponse
	if err := json.Unmarshal([]byte(events[0][1]), &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("cached SSE repeat not marked cached")
	}
}

// TestConcurrentRequests serves distinct problems concurrently: all
// succeed, each search ran once, and every strategy validates.
func TestConcurrentRequests(t *testing.T) {
	ts := httptest.NewServer(New(Options{MaxInflight: 4}))
	defer ts.Close()

	const n = 4
	responses := make([]optimizeResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postJSON(t, ts, optBody("mcmc", int64(100+i), ""))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			responses[i] = out
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	g, err := flexflow.ModelScaled("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	topo := flexflow.NewSingleNode(2, "P100")
	seen := map[string]bool{}
	for i, out := range responses {
		if _, err := flexflow.ImportStrategy(out.Strategy, g, topo); err != nil {
			t.Errorf("request %d: invalid strategy: %v", i, err)
		}
		if seen[out.Fingerprint] {
			t.Errorf("request %d: duplicate fingerprint %s", i, out.Fingerprint)
		}
		seen[out.Fingerprint] = true
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 4 {
		t.Fatalf("jobs_total = %g", n)
	}
}

// TestAdmissionControl fills the single inflight slot with a blocked
// search and asserts the next distinct request bounces with 429 and a
// Retry-After hint, then completes once the slot frees.
func TestAdmissionControl(t *testing.T) {
	blockRelease = make(chan struct{})
	ts := httptest.NewServer(New(Options{MaxInflight: 1}))
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts, optBody("blocktest", 1, ""))
		first <- resp.StatusCode
	}()
	waitMetric(t, ts, "flexflowd_jobs_inflight", 1)

	resp, _ := postJSON(t, ts, optBody("blocktest", 2, ""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_rejected_total"); n != 1 {
		t.Fatalf("jobs_rejected_total = %g", n)
	}

	close(blockRelease)
	if status := <-first; status != http.StatusOK {
		t.Fatalf("blocked request finished with %d", status)
	}
	resp, _ = postJSON(t, ts, optBody("blocktest", 2, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release request got %d", resp.StatusCode)
	}
}

// TestBadWindowRejectedBeforeAdmission sends an inline lenet whose
// first conv has kernel_h 0 while the single inflight slot is held: the
// window check runs at decode, so the answer is a 400 rather than a
// 429 (or a search that sits on the slot until it fails), no job
// starts, and the body stays out of the request index.
func TestBadWindowRejectedBeforeAdmission(t *testing.T) {
	g, err := flexflow.ModelScaled("lenet", 64)
	if err != nil {
		t.Fatal(err)
	}
	gdata, err := flexflow.ExportGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(gdata, []byte(`"kernel_h": 5,`), []byte(`"kernel_h": 0,`), 1)
	if bytes.Equal(bad, gdata) {
		t.Fatal(`lenet's export has no "kernel_h": 5 to corrupt`)
	}
	body := fmt.Sprintf(`{"graph":%s,"gpus":2,"options":{"max_iters":30}}`, bad)

	blockRelease = make(chan struct{})
	srv := New(Options{MaxInflight: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts, optBody("blocktest", 1, ""))
		first <- resp.StatusCode
	}()
	waitMetric(t, ts, "flexflowd_jobs_inflight", 1)

	status, msg := postRaw(t, ts, body)
	if status != http.StatusBadRequest || !strings.Contains(string(msg), "kernel") {
		t.Errorf("bad window: status %d (%s), want 400 naming the kernel", status, msg)
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_rejected_total"); n != 0 {
		t.Errorf("jobs_rejected_total = %g: the bad body reached admission", n)
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 1 {
		t.Errorf("jobs_total = %g, want only the blocker's job", n)
	}
	close(blockRelease)
	if status := <-first; status != http.StatusOK {
		t.Fatalf("blocked request finished with %d", status)
	}
	if n := srv.index.len(); n != 1 {
		t.Fatalf("request index holds %d entries, want only the blocker's", n)
	}
}

// TestCoalesce sends the same uncached request twice concurrently: one
// search runs, both callers get its result, the joiner marked
// coalesced.
func TestCoalesce(t *testing.T) {
	blockRelease = make(chan struct{})
	ts := httptest.NewServer(New(Options{MaxInflight: 2}))
	defer ts.Close()

	type reply struct {
		status int
		out    optimizeResponse
	}
	replies := make(chan reply, 2)
	post := func() {
		resp, out := postJSON(t, ts, optBody("blocktest", 3, ""))
		replies <- reply{resp.StatusCode, out}
	}
	go post()
	waitMetric(t, ts, "flexflowd_jobs_inflight", 1)
	go post()
	// The joiner must attach, not occupy the second slot.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && scrapeMetric(t, ts, "flexflowd_jobs_total") < 1 {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(blockRelease)

	coalesced := 0
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("reply %d: status %d", i, r.status)
		}
		if r.out.Coalesced {
			coalesced++
		}
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 1 {
		t.Fatalf("identical concurrent requests ran %g searches", n)
	}
	if coalesced != 1 {
		t.Fatalf("%d replies marked coalesced, want 1", coalesced)
	}
}

// TestDeadline cuts a search off at its per-request deadline: the
// caller still gets the best-so-far strategy, marked timed_out, and
// the truncated result is never cached.
func TestDeadline(t *testing.T) {
	blockRelease = make(chan struct{}) // never released: only the deadline ends the search
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	body := `{"model":"lenet","scale":16,"gpus":2,"algorithm":"blocktest",
		"options":{"seed":4,"timeout_ms":100}}`
	start := time.Now()
	resp, out := postJSON(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bite: %v", elapsed)
	}
	if !out.TimedOut || len(out.Strategy) == 0 {
		t.Fatalf("timed-out search: timed_out=%v strategy=%d bytes", out.TimedOut, len(out.Strategy))
	}
	if n := scrapeMetric(t, ts, "flexflowd_cache_entries"); n != 0 {
		t.Fatalf("truncated result was cached: entries = %g", n)
	}
	resp, out = postJSON(t, ts, body)
	if resp.StatusCode != http.StatusOK || out.Cached {
		t.Fatalf("repeat of truncated request: status %d cached %v", resp.StatusCode, out.Cached)
	}
}

// TestDeadlineClamp asserts MaxTimeout bounds what a request may ask
// for: a blocked search requesting a long deadline ends at the clamp.
func TestDeadlineClamp(t *testing.T) {
	blockRelease = make(chan struct{})
	ts := httptest.NewServer(New(Options{MaxTimeout: 100 * time.Millisecond}))
	defer ts.Close()

	body := `{"model":"lenet","scale":16,"gpus":2,"algorithm":"blocktest",
		"options":{"seed":5,"timeout_ms":600000}}`
	start := time.Now()
	resp, out := postJSON(t, ts, body)
	if resp.StatusCode != http.StatusOK || !out.TimedOut {
		t.Fatalf("status %d timed_out %v", resp.StatusCode, out.TimedOut)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("MaxTimeout clamp did not bite: %v", elapsed)
	}
}

// TestDrain exercises graceful shutdown: draining rejects new work and
// flips /healthz, a patient drain waits for the running search, and an
// expiring drain cancels it — the client still gets a best-so-far.
func TestDrain(t *testing.T) {
	blockRelease = make(chan struct{}) // never released: drain must cancel
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan optimizeResponse, 1)
	go func() {
		_, out := postJSON(t, ts, optBody("blocktest", 6, ""))
		done <- out
	}()
	waitMetric(t, ts, "flexflowd_jobs_inflight", 1)

	drained := make(chan error, 1)
	dctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	go func() { drained <- srv.Drain(dctx) }()

	// Draining state is visible immediately.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped to 503")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ := postJSON(t, ts, optBody("mcmc", 6, ""))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("optimize during drain got %d, want 503", resp.StatusCode)
	}

	if err := <-drained; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want deadline exceeded", err)
	}
	out := <-done
	if !out.TimedOut || len(out.Strategy) == 0 {
		t.Fatalf("cancelled search's client got timed_out=%v strategy=%d bytes", out.TimedOut, len(out.Strategy))
	}
}

// TestNoCacheForcesRun asserts no_cache bypasses both lookup and
// coalescing but still refreshes the cache.
func TestNoCacheForcesRun(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	postJSON(t, ts, optBody("mcmc", 9, ""))
	resp, out := postJSON(t, ts, optBody("mcmc", 9, `,"no_cache":true`))
	if resp.StatusCode != http.StatusOK || out.Cached {
		t.Fatalf("no_cache repeat: status %d cached %v", resp.StatusCode, out.Cached)
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 2 {
		t.Fatalf("no_cache did not force a re-run: jobs_total = %g", n)
	}
	if n := scrapeMetric(t, ts, "flexflowd_cache_entries"); n != 1 {
		t.Fatalf("cache_entries = %g", n)
	}
}

// badRequestBodies are optimize bodies that every request-validation
// path must reject with a 400; they also seed FuzzDecodeRequest.
var badRequestBodies = map[string]string{
	"empty":             `{}`,
	"bad json":          `{`,
	"unknown field":     `{"model":"lenet","gpus":2,"modle":"x"}`,
	"unknown model":     `{"model":"lenet-9000","gpus":2}`,
	"model and graph":   `{"model":"lenet","graph":{"name":"g","ops":[]},"gpus":2}`,
	"no topology":       `{"model":"lenet","scale":16}`,
	"two topologies":    `{"model":"lenet","scale":16,"gpus":2,"cluster":"p100"}`,
	"unknown cluster":   `{"model":"lenet","scale":16,"cluster":"dgx"}`,
	"unknown algorithm": `{"model":"lenet","scale":16,"gpus":2,"algorithm":"quantum"}`,
	"negative scale":    `{"model":"lenet","scale":-1,"gpus":2}`,
	"bad initial":       `{"model":"lenet","scale":16,"gpus":2,"initial":{"name":"other"}}`,
	"bad inline graph":  `{"graph":{"name":"g","ops":[{"name":"x","kind":"Warp"}]},"gpus":2}`,
	"trailing data":     `{"model":"lenet","scale":16,"gpus":2} trailing garbage {`,
	"two objects":       `{"model":"lenet","scale":16,"gpus":2}{"model":"lenet","scale":16,"gpus":2}`,
	"too many gpus":     `{"model":"lenet","scale":16,"gpus":257}`,
	"too many nodes":    `{"model":"lenet","scale":16,"cluster":"p100","nodes":65}`,
	"measured":          `{"model":"lenet","scale":16,"gpus":2,"options":{"locality":"measured"}}`,
	"uniform":           `{"model":"lenet","scale":16,"gpus":2,"options":{"locality":"uniform"}}`,
	"late-biased":       `{"model":"lenet","scale":16,"gpus":2,"options":{"locality":"late-biased"}}`,
	"stratified":        `{"model":"lenet","scale":16,"gpus":2,"options":{"locality":"stratified"}}`,
	// A 4x4 kernel over a 3x3 input at stride 2: truncating division
	// alone derives the 1x1 output this op claims.
	"over-wide window": `{"graph":{"name":"wide","ops":[{"name":"x","kind":"Input","out":[{"name":"sample","size":2,"kind":"sample"},{"name":"channel","size":3,"kind":"unsplittable"},{"name":"height","size":3,"kind":"attribute"},{"name":"width","size":3,"kind":"attribute"}],"layer":-1},{"name":"conv","kind":"Conv2D","out":[{"name":"sample","size":2,"kind":"sample"},{"name":"channel","size":4,"kind":"parameter"},{"name":"height","size":1,"kind":"attribute"},{"name":"width","size":1,"kind":"attribute"}],"inputs":["x"],"kernel_h":4,"kernel_w":4,"stride_h":2,"stride_w":2,"in_channels":3,"layer":-1,"weight_elems":196}]},"gpus":2}`,
}

// TestDeletedLocalityRejected pins the answer to the deleted
// options.locality field: MCMC has one proposal distribution, so a
// request naming any policy — one that once existed or the uniform
// draw it always makes — is a 400 for the unknown field, and no such
// body enters the request index.
func TestDeletedLocalityRejected(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, name := range []string{"measured", "uniform", "late-biased", "stratified"} {
		status, msg := postRaw(t, ts, badRequestBodies[name])
		if status != http.StatusBadRequest || !strings.Contains(string(msg), `unknown field \"locality\"`) {
			t.Errorf("locality %s: status %d (%s), want 400 naming the unknown field", name, status, msg)
		}
	}
	if n := srv.index.len(); n != 0 {
		t.Fatalf("locality bodies entered the request index: %d entries", n)
	}
}

// TestBadRequests drives every request-validation path to a 400, with
// the request index cold and again once good bodies have warmed it, so
// that no check is skipped on an index hit, and asserts no rejected
// body ever enters the index.
func TestBadRequests(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	check := func(when string) {
		t.Helper()
		for name, body := range badRequestBodies {
			status, msg := postRaw(t, ts, body)
			if status != http.StatusBadRequest {
				t.Errorf("%s, %s: status %d (%s), want 400", name, when, status, msg)
			}
		}
	}
	check("index cold")
	if n := srv.index.len(); n != 0 {
		t.Fatalf("rejected bodies entered the request index: %d entries", n)
	}
	for seed := int64(1); seed <= 2; seed++ {
		if status, body := postRaw(t, ts, optBody("mcmc", seed, "")); status != http.StatusOK {
			t.Fatalf("warming the request index: status %d: %s", status, body)
		}
	}
	if n := srv.index.len(); n != 2 {
		t.Fatalf("request index holds %d entries after warming, want 2", n)
	}
	check("index warm")
	check("index warm, repeated")
	if n := srv.index.len(); n != 2 {
		t.Fatalf("rejected bodies entered the request index: %d entries, want the 2 good ones", n)
	}
}

// TestRequestIndexExclusions asserts what never enters the request
// index: no_cache bodies, and budgeted bodies, whose fingerprint also
// hashes the process-wide cost profile. Two identical budgeted bodies
// sent around a profile change must get different fingerprints.
func TestRequestIndexExclusions(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, out := postJSON(t, ts, optBody("mcmc", 31, `,"no_cache":true`))
		if resp.StatusCode != http.StatusOK || out.Cached {
			t.Fatalf("no_cache try %d: status %d cached %v", i, resp.StatusCode, out.Cached)
		}
	}
	if n := srv.index.len(); n != 0 {
		t.Fatalf("no_cache bodies entered the request index: %d entries", n)
	}

	budgeted := `{"model":"lenet","scale":16,"gpus":2,"options":{"budget_ms":2,"seed":31,"timeout_ms":30000}}`
	resp, before := postJSON(t, ts, budgeted)
	if resp.StatusCode != http.StatusOK || before.Cached || before.Fingerprint == "" {
		t.Fatalf("budgeted: status %d cached %v fingerprint %q", resp.StatusCode, before.Cached, before.Fingerprint)
	}
	prof := flexflow.DefaultCostProfile()
	prof.Source = "server-test"
	prev := flexflow.SetCostProfile(prof)
	defer flexflow.SetCostProfile(prev)
	resp, after := postJSON(t, ts, budgeted)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted after the profile change: status %d", resp.StatusCode)
	}
	if after.Cached || after.Fingerprint == before.Fingerprint {
		t.Fatalf("budgeted body after a cost-profile change: cached %v, fingerprint %s (was %s), want a new search under a new key",
			after.Cached, after.Fingerprint, before.Fingerprint)
	}
	if n := srv.index.len(); n != 0 {
		t.Fatalf("budgeted bodies entered the request index: %d entries", n)
	}
	if h := srv.met.indexHits.Load(); h != 0 {
		t.Fatalf("request index hits = %d, want 0", h)
	}
}

// TestRequestIndexEvicted asserts an index hit is answered only while
// its strategy is still cached: with CacheSize 1, a no_cache search
// (which refreshes the cache but never enters the index) evicts the
// indexed body's strategy, and the body's repeat runs a new search.
func TestRequestIndexEvicted(t *testing.T) {
	srv := New(Options{CacheSize: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := optBody("mcmc", 41, "")
	resp, first := postJSON(t, ts, body)
	if resp.StatusCode != http.StatusOK || first.Cached {
		t.Fatalf("first: status %d cached %v", resp.StatusCode, first.Cached)
	}
	if resp, out := postJSON(t, ts, optBody("mcmc", 42, `,"no_cache":true`)); resp.StatusCode != http.StatusOK || out.Cached {
		t.Fatalf("evicting search: status %d cached %v", resp.StatusCode, out.Cached)
	}
	if _, ok := srv.index.get(indexKey([]byte(body))); !ok {
		t.Fatal("the first body left the request index; the test needs it indexed")
	}
	if _, ok := srv.cache.get(first.Fingerprint); ok {
		t.Fatal("the first body's strategy is still cached; the test needs it evicted")
	}
	resp, again := postJSON(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d", resp.StatusCode)
	}
	if again.Cached || again.Fingerprint != first.Fingerprint {
		t.Fatalf("repeat of an indexed body whose strategy was evicted: cached %v fingerprint %s, want a new search under %s",
			again.Cached, again.Fingerprint, first.Fingerprint)
	}
	if n := scrapeMetric(t, ts, "flexflowd_jobs_total"); n != 3 {
		t.Fatalf("jobs_total = %g, want 3", n)
	}
	if h, m := scrapeMetric(t, ts, "flexflowd_request_index_hits_total"), scrapeMetric(t, ts, "flexflowd_request_index_misses_total"); h != 0 || m != 3 {
		t.Fatalf("request index hits/misses = %g/%g, want 0/3", h, m)
	}
}

// TestRequestIndexBounded asserts the request index is an LRU bounded
// by CacheSize, and absent when caching is disabled.
func TestRequestIndexBounded(t *testing.T) {
	srv := New(Options{CacheSize: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for seed := int64(51); seed <= 53; seed++ {
		if status, body := postRaw(t, ts, optBody("mcmc", seed, "")); status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, status, body)
		}
	}
	if n := srv.index.len(); n != 2 {
		t.Fatalf("request index holds %d entries, want the bound 2", n)
	}

	off := New(Options{CacheSize: -1})
	if off.index != nil || off.cache != nil {
		t.Fatal("caching disabled, yet the request index or cache exists")
	}
	tsOff := httptest.NewServer(off)
	defer tsOff.Close()
	for i := 0; i < 2; i++ {
		resp, out := postJSON(t, tsOff, optBody("mcmc", 51, ""))
		if resp.StatusCode != http.StatusOK || out.Cached {
			t.Fatalf("caching disabled, try %d: status %d cached %v", i, resp.StatusCode, out.Cached)
		}
	}
	if h, m := off.met.indexHits.Load(), off.met.indexMisses.Load(); h != 0 || m != 0 {
		t.Fatalf("caching disabled: request index hits/misses = %d/%d, want 0/0", h, m)
	}
}

// TestMetaEndpoints covers /healthz and /v1/optimizers.
func TestMetaEndpoints(t *testing.T) {
	ts := httptest.NewServer(New(Options{}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/optimizers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Optimizers []string `json:"optimizers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mcmc", "exhaustive", "optcnn", "reinforce", "polish"} {
		found := false
		for _, have := range out.Optimizers {
			if have == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("optimizer %q missing from %v", want, out.Optimizers)
		}
	}
}

// BenchmarkServerOptimize lives outside the root package
// (internal/server imports flexflow, so an in-package benchmark would
// be an import cycle) and measures the strategy server end to end over
// a real HTTP round trip. "cold" forces a fresh search on every
// request with no_cache; "cached" answers every repeat of an identical
// request from the content-addressed strategy cache, and
// "cached-inline" does the same for a request carrying the graph
// inline, whose hit only hashes the payload's bytes for the request
// index and never parses them. The gap between "cold" and the cached
// cases is what the cache buys a repeat caller.
package flexflow_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"flexflow"
	"flexflow/internal/server"
)

func benchServerPost(b *testing.B, ts *httptest.Server, body []byte) (cached bool) {
	b.Helper()
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Cached     bool            `json:"cached"`
		BestCostNS int64           `json:"best_cost_ns"`
		Strategy   json.RawMessage `json:"strategy"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		b.Fatal(err)
	}
	if out.BestCostNS <= 0 || len(out.Strategy) == 0 {
		b.Fatalf("degenerate response: %s", raw)
	}
	return out.Cached
}

func BenchmarkServerOptimize(b *testing.B) {
	g, err := flexflow.ModelScaled("lenet", 16)
	if err != nil {
		b.Fatal(err)
	}
	gdata, err := flexflow.ExportGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	req := func(noCache, inline bool) []byte {
		m := map[string]any{
			"gpus":     2,
			"options":  map[string]any{"max_iters": 60, "seed": 7, "timeout_ms": 60000},
			"no_cache": noCache,
		}
		if inline {
			m["graph"] = json.RawMessage(gdata)
		} else {
			m["model"], m["scale"] = "lenet", 16
		}
		raw, err := json.Marshal(m)
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}
	cached := func(inline bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			ts := httptest.NewServer(server.New(server.Options{}))
			defer ts.Close()
			body := req(false, inline)
			benchServerPost(b, ts, body) // prime the cache with the one real search
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !benchServerPost(b, ts, body) {
					b.Fatal("identical repeat request re-ran the search")
				}
			}
		}
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		ts := httptest.NewServer(server.New(server.Options{}))
		defer ts.Close()
		body := req(true, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if benchServerPost(b, ts, body) {
				b.Fatal("no_cache request answered from the cache")
			}
		}
	})

	b.Run("cached", cached(false))
	b.Run("cached-inline", cached(true))
}

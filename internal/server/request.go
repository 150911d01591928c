package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"flexflow"
)

// The optimize wire format. Exactly one graph source (model or graph)
// and one topology source (cluster, gpus or topology) must be set; the
// inline graph/topology payloads are the formats of
// flexflow.ExportGraph and ExportTopology. See docs/SERVER.md.

// optimizeRequest is the POST /v1/optimize body.
type optimizeRequest struct {
	// Graph source: a model-zoo name (with an optional down-scale
	// factor; 0 builds the paper-scale instance) or an inline graph.
	Model string          `json:"model,omitempty"`
	Scale int             `json:"scale,omitempty"`
	Graph json.RawMessage `json:"graph,omitempty"`

	// Topology source: a built-in cluster ("p100" or "k80") with a node
	// count, a single-node GPU count (with an optional device model,
	// default "P100"), or an inline topology.
	Cluster  string          `json:"cluster,omitempty"`
	Nodes    int             `json:"nodes,omitempty"`
	GPUs     int             `json:"gpus,omitempty"`
	GPUModel string          `json:"gpu_model,omitempty"`
	Topology json.RawMessage `json:"topology,omitempty"`

	// Algorithm is the optimizer registry name (default "mcmc").
	Algorithm string `json:"algorithm,omitempty"`
	// Options tune the search; zero values mean the library defaults.
	Options requestOptions `json:"options"`
	// Initial, when present, seeds the search with a strategy in the
	// ExportStrategy format (validated against the request's graph and
	// topology).
	Initial json.RawMessage `json:"initial,omitempty"`
	// NoCache forces a fresh search: the cache is neither consulted nor
	// coalesced onto, though the fresh result still refreshes it.
	NoCache bool `json:"no_cache,omitempty"`
}

// requestOptions is the wire shape of flexflow.OptimizeOptions plus
// the per-request wall-clock deadline. Durations travel as integer
// milliseconds.
type requestOptions struct {
	MaxIters           int     `json:"max_iters,omitempty"`
	BudgetMS           int64   `json:"budget_ms,omitempty"`
	Beta               float64 `json:"beta,omitempty"`
	Seed               int64   `json:"seed,omitempty"`
	IncludeExpert      bool    `json:"include_expert,omitempty"`
	Workers            int     `json:"workers,omitempty"`
	MaxDegree          int     `json:"max_degree,omitempty"`
	MaxCandidatesPerOp int     `json:"max_candidates_per_op,omitempty"`
	FullSim            bool    `json:"full_sim,omitempty"`
	TimeoutMS          int64   `json:"timeout_ms,omitempty"`
}

// optimizeResponse is the POST /v1/optimize result body (and the SSE
// "result" event payload).
type optimizeResponse struct {
	// Algorithm echoes the optimizer that produced the strategy.
	Algorithm string `json:"algorithm"`
	// Fingerprint is the request's content-addressed cache key (empty
	// when the request was uncacheable).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Cached reports the strategy was answered from the cache without
	// running a search; Coalesced that this request shared an identical
	// already-running search instead of starting its own.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
	// TimedOut marks a best-so-far strategy cut short by the request
	// deadline (never cached).
	TimedOut bool `json:"timed_out,omitempty"`
	// BestCostNS is the simulated per-iteration time of the strategy.
	BestCostNS int64 `json:"best_cost_ns"`
	// Iters and SearchTimeNS report the work the search did.
	Iters        int   `json:"iters"`
	SearchTimeNS int64 `json:"search_time_ns"`
	// Strategy is the winning strategy in the ExportStrategy format.
	Strategy json.RawMessage `json:"strategy"`
}

// request is a decoded, validated optimize request.
type request struct {
	wire      optimizeRequest
	prob      flexflow.Problem
	algorithm string
	opts      flexflow.OptimizeOptions
	timeout   time.Duration
}

// maxRequestBytes bounds an optimize request body; inline graphs for
// the zoo's largest models are well under this.
const maxRequestBytes = 16 << 20

// maxPresize caps how much of a body's claimed Content-Length readBody
// allocates up front: a header that claims megabytes must not reserve
// memory for bytes that never arrive. Larger bodies grow past it as
// their bytes are read.
const maxPresize = 1 << 20

// readBody reads the whole POST /v1/optimize body, at most
// maxRequestBytes of it, into a buffer pre-sized from Content-Length
// (capped at maxPresize). The +1 leaves room for the final read that
// reports EOF, so a body of exactly its declared length never regrows
// the buffer.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := int64(512)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength+1, maxPresize)
	}
	body := make([]byte, 0, size)
	rd := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	for {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			return nil, fmt.Errorf("reading request: %w", err)
		}
	}
}

// decodeRequest parses and validates a POST /v1/optimize body into a
// runnable request. Every check that needs no graph runs first, then
// the graph is built and the initial strategy, if any, is validated
// against it. All errors are client errors (400).
func (s *Server) decodeRequest(body []byte) (*request, error) {
	var wire optimizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("decoding request: data after the request object")
	}

	if err := checkGraphSource(&wire); err != nil {
		return nil, err
	}
	topo, err := buildTopology(&wire)
	if err != nil {
		return nil, err
	}
	algorithm := wire.Algorithm
	if algorithm == "" {
		algorithm = "mcmc"
	}
	if _, err := flexflow.GetOptimizer(algorithm); err != nil {
		return nil, err
	}

	o := wire.Options
	opts := flexflow.OptimizeOptions{
		MaxIters:           o.MaxIters,
		Budget:             time.Duration(o.BudgetMS) * time.Millisecond,
		Beta:               o.Beta,
		Seed:               o.Seed,
		IncludeExpert:      o.IncludeExpert,
		Workers:            o.Workers,
		MaxDegree:          o.MaxDegree,
		MaxCandidatesPerOp: o.MaxCandidatesPerOp,
		FullSim:            o.FullSim,
	}
	timeout := s.opts.DefaultTimeout
	if o.TimeoutMS > 0 {
		timeout = time.Duration(o.TimeoutMS) * time.Millisecond
	}
	if timeout > s.opts.MaxTimeout {
		timeout = s.opts.MaxTimeout
	}

	g, err := buildGraph(&wire)
	if err != nil {
		return nil, err
	}
	if len(wire.Initial) > 0 {
		initial, err := flexflow.ImportStrategy(wire.Initial, g, topo)
		if err != nil {
			return nil, fmt.Errorf("initial strategy: %w", err)
		}
		opts.Initial = initial
	}
	return &request{
		wire:      wire,
		prob:      flexflow.Problem{Graph: g, Topology: topo},
		algorithm: algorithm,
		opts:      opts,
		timeout:   timeout,
	}, nil
}

// checkGraphSource validates the request's graph source without
// building the graph.
func checkGraphSource(wire *optimizeRequest) error {
	switch {
	case wire.Model != "" && len(wire.Graph) > 0:
		return fmt.Errorf("request names both a model and an inline graph; pick one")
	case wire.Model == "" && len(wire.Graph) == 0:
		return fmt.Errorf("request needs a graph: set model or graph")
	case wire.Model != "" && wire.Scale < 0:
		return fmt.Errorf("scale must be >= 0, got %d", wire.Scale)
	}
	return nil
}

// buildGraph builds the graph of a source checkGraphSource accepted.
func buildGraph(wire *optimizeRequest) (*flexflow.Graph, error) {
	switch {
	case wire.Model == "":
		return flexflow.ImportGraph(wire.Graph)
	case wire.Scale > 0:
		return flexflow.ModelScaled(wire.Model, wire.Scale)
	default:
		return flexflow.Model(wire.Model)
	}
}

// maxGPUs bounds the GPU count of a built-in topology. They link every
// GPU pair of a node and every node pair, so their size grows with the
// square of the count, and an unbounded count would let a small body
// ask for a topology that exhausts memory. 256 is four times the
// paper's largest cluster.
const maxGPUs = 256

// buildTopology resolves the request's topology source.
func buildTopology(wire *optimizeRequest) (*flexflow.Topology, error) {
	sources := 0
	for _, set := range []bool{wire.Cluster != "", wire.GPUs > 0, len(wire.Topology) > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("request needs exactly one topology source: cluster, gpus or topology")
	}
	switch {
	case wire.Cluster != "":
		nodes := wire.Nodes
		if nodes <= 0 {
			nodes = 1
		}
		if nodes > maxGPUs/4 {
			return nil, fmt.Errorf("nodes must be <= %d (4 GPUs each), got %d", maxGPUs/4, nodes)
		}
		switch wire.Cluster {
		case "p100":
			return flexflow.NewP100Cluster(nodes), nil
		case "k80":
			return flexflow.NewK80Cluster(nodes), nil
		default:
			return nil, fmt.Errorf("unknown cluster %q (have p100, k80)", wire.Cluster)
		}
	case wire.GPUs > 0:
		if wire.GPUs > maxGPUs {
			return nil, fmt.Errorf("gpus must be <= %d, got %d", maxGPUs, wire.GPUs)
		}
		model := wire.GPUModel
		if model == "" {
			model = "P100"
		}
		return flexflow.NewSingleNode(wire.GPUs, model), nil
	default:
		return flexflow.ImportTopology(wire.Topology)
	}
}

// writeJSON writes v as a compact JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status, body = http.StatusInternalServerError, []byte(`{"error":"encoding response"}`)
	}
	writeBody(w, status, body)
}

// writeBody writes an already rendered JSON body (json.Marshal output,
// the form the strategy cache stores) and a closing newline.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	io.WriteString(w, "\n")
}

// writeError writes a JSON {"error": ...} body with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

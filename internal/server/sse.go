package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"flexflow"
)

// Server-sent events: a POST /v1/optimize with `Accept:
// text/event-stream` answers with a stream of `progress` events (the
// optimizer's ProgressEvent samples, lossily sampled — slow readers
// drop intermediate events, never the outcome) terminated by exactly
// one `result` or `error` event.

// progressJSON is the SSE "progress" event payload.
type progressJSON struct {
	Algorithm  string `json:"algorithm"`
	Chain      int    `json:"chain"`
	Iter       int    `json:"iter"`
	BestCostNS int64  `json:"best_cost_ns"`
	ElapsedNS  int64  `json:"elapsed_ns"`
	Final      bool   `json:"final"`
}

// wantsSSE reports whether the request asked for an event stream.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// writeEvent writes one SSE frame with v as its JSON data.
func writeEvent(w io.Writer, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	writeFrame(w, event, data)
}

// writeFrame writes one SSE frame with already rendered JSON data.
func writeFrame(w io.Writer, event string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// sseHeaders switches the response into an event stream.
func sseHeaders(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
}

// streamResult answers an SSE request that needs no live search — a
// cache hit — with a single terminal result event carrying the stored
// body as is.
func streamResult(w http.ResponseWriter, body []byte) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotAcceptable, "response writer does not support streaming")
		return
	}
	sseHeaders(w)
	writeFrame(w, "result", body)
	fl.Flush()
}

// streamJob follows a running search over SSE: progress events as they
// arrive, then the terminal result or error event when the job
// finishes. A disconnecting client stops the stream but not the
// search.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job, coalesced bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotAcceptable, "response writer does not support streaming")
		return
	}
	events := j.subscribe()
	sseHeaders(w)
	fl.Flush()
	for {
		select {
		case ev := <-events:
			writeEvent(w, "progress", toProgressJSON(ev))
			fl.Flush()
		case <-j.done:
			// Flush progress that raced with completion, then terminate.
			for drained := false; !drained; {
				select {
				case ev := <-events:
					writeEvent(w, "progress", toProgressJSON(ev))
				default:
					drained = true
				}
			}
			if j.err != nil {
				writeEvent(w, "error", map[string]string{"error": j.err.Error()})
			} else {
				resp := *j.res
				resp.Coalesced = coalesced
				writeEvent(w, "result", resp)
			}
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// toProgressJSON converts an optimizer event to its wire shape.
func toProgressJSON(ev flexflow.ProgressEvent) progressJSON {
	return progressJSON{
		Algorithm:  ev.Algorithm,
		Chain:      ev.Chain,
		Iter:       ev.Iter,
		BestCostNS: int64(ev.BestCost),
		ElapsedNS:  int64(ev.Elapsed),
		Final:      ev.Final,
	}
}

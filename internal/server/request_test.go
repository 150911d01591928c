package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flexflow"
)

// TestReadBodyPresize asserts readBody trusts Content-Length only up to
// maxPresize: a header claiming 16 MB over a 10-byte body allocates at
// most maxPresize plus the bytes received, and an honest header sizes
// the buffer so the body is read without regrowing it.
func TestReadBodyPresize(t *testing.T) {
	const sent = "0123456789"
	r := httptest.NewRequest("POST", "/v1/optimize", strings.NewReader(sent))
	r.ContentLength = maxRequestBytes
	body, err := readBody(httptest.NewRecorder(), r)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != sent {
		t.Fatalf("read %q, want %q", body, sent)
	}
	if c := cap(body); c > maxPresize+len(sent) {
		t.Fatalf("a lying Content-Length grew the buffer to %d bytes, want <= %d", c, maxPresize+len(sent))
	}

	honest := strings.Repeat("x", 4000)
	r = httptest.NewRequest("POST", "/v1/optimize", strings.NewReader(honest))
	body, err = readBody(httptest.NewRecorder(), r)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != honest || cap(body) != len(honest)+1 {
		t.Fatalf("honest Content-Length: read %d bytes into cap %d, want %d into %d", len(body), cap(body), len(honest), len(honest)+1)
	}
}

// TestOverLimitBody asserts a body beyond maxRequestBytes is a 400 that
// never gets past readBody: it reaches neither the request index (it
// is not hashed) nor the decoder, which only an index miss runs.
func TestOverLimitBody(t *testing.T) {
	huge := bytes.Repeat([]byte(" "), maxRequestBytes+1)
	r := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(huge))
	var tooBig *http.MaxBytesError
	if _, err := readBody(httptest.NewRecorder(), r); !errors.As(err, &tooBig) {
		t.Fatalf("readBody of an over-limit body: err %v, want a MaxBytesError", err)
	}

	srv := New(Options{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(huge)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("over-limit body: status %d, want 400", rec.Code)
	}
	if h, m := srv.met.indexHits.Load(), srv.met.indexMisses.Load(); h != 0 || m != 0 {
		t.Fatalf("over-limit body reached the request index: hits/misses %d/%d", h, m)
	}
}

// FuzzDecodeRequest feeds arbitrary bodies to decodeRequest. Decoding
// must never panic, and a body that decodes twice must get the same
// flexflow.Fingerprint both times, from two independently built
// graphs: the request index relies on the fingerprint being a function
// of the body. Seeds are the bad bodies of TestBadRequests and the
// valid bodies of the other tests.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range badRequestBodies {
		f.Add(body)
	}
	g, err := flexflow.ModelScaled("lenet", 16)
	if err != nil {
		f.Fatal(err)
	}
	topo := flexflow.NewSingleNode(2, "P100")
	gdata, err := flexflow.ExportGraph(g)
	if err != nil {
		f.Fatal(err)
	}
	tdata, err := flexflow.ExportTopology(topo)
	if err != nil {
		f.Fatal(err)
	}
	sdata, err := flexflow.ExportStrategy(g, flexflow.DataParallel(g, topo))
	if err != nil {
		f.Fatal(err)
	}
	opts := `"options":{"max_iters":60,"seed":3}`
	for _, body := range []string{
		optBody("mcmc", 7, ""),
		optBody("mcmc", 9, `,"no_cache":true`),
		optBody("blocktest", 1, ""),
		`{"model":"lenet","gpus":2,` + opts + `}`,
		`{"model":"lenet","scale":16,"cluster":"k80","nodes":2,` + opts + `}`,
		`{"model":"lenet","scale":16,"gpus":2,"options":{"budget_ms":2,"seed":31}}`,
		fmt.Sprintf(`{"graph":%s,"gpus":2,%s}`, gdata, opts),
		fmt.Sprintf(`{"model":"lenet","scale":16,"topology":%s,%s}`, tdata, opts),
		fmt.Sprintf(`{"model":"lenet","scale":16,"gpus":2,"initial":%s,%s}`, sdata, opts),
	} {
		f.Add(body)
	}

	srv := New(Options{})
	f.Fuzz(func(t *testing.T, body string) {
		first, err := srv.decodeRequest([]byte(body))
		if err != nil {
			return
		}
		second, err := srv.decodeRequest([]byte(body))
		if err != nil {
			t.Fatalf("decoded once, then failed: %v", err)
		}
		fp1, err1 := flexflow.Fingerprint(first.prob, first.algorithm, first.opts)
		fp2, err2 := flexflow.Fingerprint(second.prob, second.algorithm, second.opts)
		if fp1 != fp2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("one body, two fingerprints: %q (%v) then %q (%v)", fp1, err1, fp2, err2)
		}
	})
}

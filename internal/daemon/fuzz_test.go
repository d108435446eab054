package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"daesim/internal/sweep"
)

// TestBatchWireSchemasMirrorPointSchemas is the batch protocol's drift
// guard: the batch request bodies are exactly {items: [<one-point
// request>]}, so schemaguard's json-tag check on machine.Params
// transitively covers them — but only as long as the item types stay
// RunRequest and SearchRequest and nothing grows beside Items without
// the decoders (and their fuzz corpus) being extended consciously.
func TestBatchWireSchemasMirrorPointSchemas(t *testing.T) {
	t.Parallel()
	br := reflect.TypeOf(BatchRunRequest{})
	if br.NumField() != 1 || br.Field(0).Type != reflect.TypeOf([]RunRequest(nil)) {
		t.Errorf("BatchRunRequest must be exactly {Items []RunRequest}; extend the decoders and fuzz seeds before changing it")
	}
	bs := reflect.TypeOf(BatchSearchRequest{})
	if bs.NumField() != 1 || bs.Field(0).Type != reflect.TypeOf([]SearchRequest(nil)) {
		t.Errorf("BatchSearchRequest must be exactly {Items []SearchRequest}; extend the decoders and fuzz seeds before changing it")
	}
	// The replies carry one SearchResponse per item.
	if rt := reflect.TypeOf(BatchSearchResponse{}); rt.Field(0).Type != reflect.TypeOf([]SearchResponse(nil)) {
		t.Errorf("BatchSearchResponse must carry []SearchResponse")
	}
}

// postBody drives one raw body through a handler and returns the
// recorded status. The server must answer — any panic in the decode or
// validation path fails the calling (fuzz) test.
func postBody(handler http.Handler, path string, body []byte) int {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	return rec.Code
}

// batchFuzzSeeds are the shared seed corpus for both batch decoders:
// valid shapes, malformed JSON, field drift (unknown and misspelled
// fields), wrong types, and structural edge cases. Oversized batches
// get their own programmatic seed (they are too big to inline).
func batchFuzzSeeds(f *testing.F, valid string) {
	f.Add([]byte(valid))
	f.Add([]byte(valid + "garbage")) // trailing bytes after a valid document
	f.Add([]byte(valid + valid))     // concatenated documents
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`42`))
	f.Add([]byte(`"items"`))
	f.Add([]byte(`{"items":null}`))
	f.Add([]byte(`{"items":[]}`))
	f.Add([]byte(`{"items":{}}`))
	f.Add([]byte(`{"items":[null]}`))
	f.Add([]byte(`{"items":[{}]}`))
	f.Add([]byte(`{"itemz":[]}`))                                                       // field drift: misspelled
	f.Add([]byte(`{"items":[],"extra":1}`))                                             // field drift: grown
	f.Add([]byte(`{"items":[{"workload":3}]}`))                                         // wrong type
	f.Add([]byte(`{"items":[{"workload":"NOSUCH","kind":"DM"}]}`))                      // unknown workload
	f.Add([]byte(`{"items":[{"workload":"TRFD","kind":"VLIW"}]}`))                      // bad kind
	f.Add([]byte(`{"items":[{"workload":"TRFD","kind":"DM","params":{"window":-5}}]}`)) // hostile params
	for _, body := range shapeConfusedBodies {
		f.Add([]byte(body.body))
	}
	f.Add([]byte(strings.Repeat(`[`, 10000))) // deep nesting
	for _, body := range hugeScaleBodies {
		f.Add([]byte(body.body))
	}
	for _, body := range oversizedBodies {
		f.Add([]byte(body.body))
	}
	// Oversized: one item past the limit must be refused with 400.
	var big bytes.Buffer
	big.WriteString(`{"items":[`)
	for i := 0; i <= MaxBatchItems; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		big.WriteString(`{"workload":"NOSUCH","kind":"DM"}`)
	}
	big.WriteString(`]}`)
	f.Add(big.Bytes())
}

// fuzzBatchEndpoint is the shared property: whatever bytes arrive, the
// decoder answers an HTTP status — 400 for anything malformed,
// oversized, or field-drifted, never a panic — and an accepted batch
// echoes one result per item.
func fuzzBatchEndpoint(f *testing.F, path, valid string) {
	srv := NewServer(Config{})
	handler := srv.Handler()
	batchFuzzSeeds(f, valid)
	f.Fuzz(func(t *testing.T, body []byte) {
		// The property is "always an HTTP answer, never a panic" — a
		// panic unwinds through ServeHTTP and fails the fuzz run. On
		// top of that, malformed JSON must always be a 400, never a
		// partial success (well-formed batches may legitimately earn
		// any status, e.g. 500 for params the simulator rejects).
		code := postBody(handler, path, body)
		if !json.Valid(body) && code != http.StatusBadRequest {
			t.Errorf("%s accepted invalid JSON with %d: %q", path, code, body)
		}
	})
}

// oversizedBodies are small requests naming enormous sizes. A queue or
// window bound is only a bound — the outstanding-fill ring grows with
// the fills actually in flight — so those points simulate; memory-spec
// geometry beyond memsys's limits is refused at decode.
var oversizedBodies = []struct {
	body string
	want int
}{
	{`{"items":[{"workload":"TRFD","kind":"DM","params":{"window":8,"md":10,"mem_queue":68719476736}}]}`, http.StatusOK},
	{`{"items":[{"workload":"TRFD","kind":"SWSM","params":{"window":68719476736,"md":10}}]}`, http.StatusOK},
	{`{"items":[{"workload":"TRFD","kind":"DM","params":{"window":8,"md":10,"mem":"bypass:64"}}]}`, http.StatusOK},
	{`{"items":[{"workload":"TRFD","kind":"DM","params":{"window":8,"md":10,"mem":"bypass:68719476736"}}]}`, http.StatusBadRequest},
	{`{"items":[{"workload":"TRFD","kind":"DM","params":{"window":8,"md":10,"mem":"cache:68719476736x2@1"}}]}`, http.StatusBadRequest},
	{`{"items":[{"workload":"TRFD","kind":"DM","params":{"window":8,"md":10,"mem":"cache:64x68719476736@1"}}]}`, http.StatusBadRequest},
}

// shapeConfusedBodies put a number or an object where the wire form is
// a name: an enum's integer value, or a memory spec's Go fields (with a
// size past memsys's bounds, which must not bypass ParseSpec). Each
// endpoint refuses its bodies with 400 at decode (TestBadRequests).
var shapeConfusedBodies = []struct{ path, body string }{
	{"/v1/batch/run", `{"items":[{"workload":"TRFD","kind":1}]}`},
	{"/v1/batch/run", `{"items":[{"workload":"TRFD","kind":{"Kind":0}}]}`},
	{"/v1/batch/run", `{"items":[{"workload":"TRFD","kind":"DM","params":{"retire":2}}]}`},
	{"/v1/batch/run", `{"items":[{"workload":"TRFD","kind":"DM","params":{"mem":{"Kind":1,"Lines":68719476736}}}]}`},
	{"/v1/batch/search", `{"items":[{"workload":"TRFD","params":{"retire":2}}]}`},
	{"/v1/batch/search", `{"items":[{"workload":"TRFD","params":{"retire":{}}}]}`},
	{"/v1/batch/search", `{"items":[{"workload":"TRFD","params":{"mem":{"Kind":1,"Lines":68719476736}}}]}`},
}

// hugeScaleBodies ask for a workload too large to build, in the run
// item shape and in the search item shape, with the endpoint whose
// decoder accepts that shape (the other answers 400 at decode) and what
// its refusal names: a scale far past MaxScale, or a generated spec
// within the size cap at scale 1 (3,773,056 instructions) but ~8x past
// it at scale 8.
var hugeScaleBodies = []struct{ path, body, want string }{
	{"/v1/batch/run", `{"items":[{"workload":"TRFD","scale":1000000,"kind":"DM","params":{}}]}`, fmt.Sprintf("limit of %d", MaxScale)},
	{"/v1/batch/search", `{"items":[{"workload":"TRFD","scale":1000000,"params":{}}]}`, fmt.Sprintf("limit of %d", MaxScale)},
	{"/v1/batch/run", `{"items":[{"workload":"spec:depth=64,ilp=64,mem=0,iters=900","scale":8,"kind":"DM","params":{}}]}`, "at scale 8 (cap"},
	{"/v1/batch/search", `{"items":[{"workload":"spec:depth=64,ilp=64,mem=0,iters=900","scale":8,"params":{}}]}`, "at scale 8 (cap"},
}

// TestHugeScaleRefused: a scale past MaxScale, or one at which a
// generated workload outgrows its size cap, earns a 400 on both batch
// endpoints before any trace is built, and the daemon keeps serving.
func TestHugeScaleRefused(t *testing.T) {
	t.Parallel()
	handler := NewServer(Config{}).Handler()
	for _, tc := range hugeScaleBodies {
		for _, path := range []string{"/v1/batch/run", "/v1/batch/search"} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s answered %d to %s, want 400", path, rec.Code, tc.body)
			}
			if path == tc.path && !strings.Contains(rec.Body.String(), tc.want) {
				t.Errorf("%s refused %s without naming %q: %s", path, tc.body, tc.want, rec.Body)
			}
		}
	}
	ok := `{"items":[{"workload":"TRFD","kind":"DM","params":{"window":8,"md":10}}]}`
	if code := postBody(handler, "/v1/batch/run", []byte(ok)); code != http.StatusOK {
		t.Errorf("after the refusals a normal request answered %d, want 200", code)
	}
}

// TestOversizedRequestsAnswer: none of the oversizedBodies may take the
// process down; each earns its status.
func TestOversizedRequestsAnswer(t *testing.T) {
	t.Parallel()
	handler := NewServer(Config{}).Handler()
	for _, tc := range oversizedBodies {
		if code := postBody(handler, "/v1/batch/run", []byte(tc.body)); code != tc.want {
			t.Errorf("%s answered %d, want %d", tc.body, code, tc.want)
		}
	}
}

// FuzzBatchRunDecode fuzzes the /v1/batch/run decoder. Run with
//
//	go test -fuzz FuzzBatchRunDecode ./internal/daemon
//
// (the seed corpus runs as a plain test either way; CI runs both modes).
func FuzzBatchRunDecode(f *testing.F) {
	fuzzBatchEndpoint(f, "/v1/batch/run",
		`{"items":[{"workload":"TRFD","kind":"DM","params":{"window":8,"md":10}}]}`)
}

// FuzzBatchSearchDecode fuzzes the /v1/batch/search decoder.
func FuzzBatchSearchDecode(f *testing.F) {
	fuzzBatchEndpoint(f, "/v1/batch/search",
		`{"items":[{"workload":"TRFD","params":{"window":8,"md":10}}]}`)
}

// FuzzCacheGCDecode fuzzes the /v1/cache/gc decoder over a server with
// an empty store: whatever bytes arrive the server answers a status,
// never a panic; invalid JSON, a negative bound and a bad max_age are
// each a 400.
func FuzzCacheGCDecode(f *testing.F) {
	store, err := sweep.OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	handler := NewServer(Config{Store: store}).Handler()
	for _, body := range []string{
		`{}`, `{"max_entries":10,"max_bytes":1024,"max_age":"24h"}`,
		``, `{`, `null`, `[]`, `{"max_entries":1}garbage`, `{"max_entriez":1}`,
		`{"max_entries":-1}`, `{"max_bytes":-1}`, `{"max_entries":"1"}`,
		`{"max_age":"soon"}`, `{"max_age":"-1h"}`, `{"max_age":24}`,
		`{"max_entries":1e400}`, `{"max_bytes":9223372036854775808}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code := postBody(handler, "/v1/cache/gc", body)
		var req GCRequest
		bad := json.Unmarshal(body, &req) != nil || req.MaxEntries < 0 || req.MaxBytes < 0
		if d, err := time.ParseDuration(req.MaxAge); req.MaxAge != "" && (err != nil || d < 0) {
			bad = true
		}
		if bad && code != http.StatusBadRequest {
			t.Errorf("/v1/cache/gc answered %d to %q, want 400", code, body)
		}
	})
}

// TestBatchSizeBounds pins the non-fuzz half of the oversize contract
// with exact messages: empty and over-limit batches are 400s that name
// the bound, for both endpoints.
func TestBatchSizeBounds(t *testing.T) {
	t.Parallel()
	srv := NewServer(Config{})
	handler := srv.Handler()
	for path, item := range map[string]string{
		"/v1/batch/run":    `{"workload":"TRFD","kind":"DM"}`,
		"/v1/batch/search": `{"workload":"TRFD"}`,
	} {
		if code := postBody(handler, path, []byte(`{"items":[]}`)); code != http.StatusBadRequest {
			t.Errorf("%s: empty batch answered %d, want 400", path, code)
		}
		var big bytes.Buffer
		big.WriteString(`{"items":[`)
		for i := 0; i <= MaxBatchItems; i++ {
			if i > 0 {
				big.WriteByte(',')
			}
			big.WriteString(item)
		}
		big.WriteString(`]}`)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(big.Bytes()))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), fmt.Sprintf("%d-item limit", MaxBatchItems)) {
			t.Errorf("%s: oversized batch answered %d %q, want 400 naming the limit", path, rec.Code, rec.Body.String())
		}
		// A valid document followed by trailing bytes is malformed — the
		// body this item would otherwise accept must 400, not execute
		// the prefix.
		if code := postBody(handler, path, []byte(`{"items":[`+item+`]}trailing`)); code != http.StatusBadRequest {
			t.Errorf("%s: trailing garbage after a valid body answered %d, want 400", path, code)
		}
	}
}

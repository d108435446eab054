package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/machine"
	"daesim/internal/memsys"
	"daesim/internal/metrics"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// TestParamsRoundTrip pins the wire schema: machine.Params and
// sweep.Point round-trip through JSON unchanged, and the request shapes
// encode to the bytes the protocol has always sent.
func TestParamsRoundTrip(t *testing.T) {
	t.Parallel()
	in := machine.Params{
		Window: 64, MD: 60, CopyLat: 2, AUWidth: 3, DUWidth: 6, Width: 9, MemQueue: 128,
		CollectESW: true, HoldSendSlots: true, Retire: machine.RetireAtComplete,
		Mem: memsys.DefaultCacheSpec(),
	}
	var out sweep.Point
	if err := json.Unmarshal(asJSON(t, sweep.Point{Kind: machine.SWSM, P: in}), &out); err != nil {
		t.Fatal(err)
	}
	if out != (sweep.Point{Kind: machine.SWSM, P: in}) {
		t.Fatalf("round trip changed the point:\nin  %+v\nout %+v", in, out)
	}
	for _, tc := range []struct {
		v    any
		want string
	}{
		{sweep.Point{Kind: machine.SWSM, P: in},
			`{"kind":"SWSM","params":{"window":64,"md":60,"copy_lat":2,"au_width":3,"du_width":6,"width":9,"mem_queue":128,"mem":"cache:64x2@2,1024x4@8","collect_esw":true,"hold_send_slots":true,"retire":"at-complete"}}`},
		// Zero fields are omitted, so a point without a memory model
		// keeps the bytes it had before the field existed.
		{machine.Params{Window: 8}, `{"window":8}`},
		{RunRequest{Target: Target{Workload: "TRFD", Scale: 2, EngineVersion: "engine-v9", Fingerprint: "f00d"}, Point: sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}}},
			`{"workload":"TRFD","scale":2,"engine_version":"engine-v9","fingerprint":"f00d","kind":"DM","params":{"window":8}}`},
		{SearchRequest{Target: Target{Workload: "TRFD", EngineVersion: "engine-v9"}, Params: machine.Params{Window: 10, MD: 60}},
			`{"workload":"TRFD","engine_version":"engine-v9","params":{"window":10,"md":60}}`},
		{BatchRunRequest{Items: []RunRequest{{Target: Target{Workload: "TRFD"}, Point: sweep.Point{P: machine.Params{Mem: memsys.Spec{Kind: memsys.BypassModel, Lines: 64}, Retire: machine.RetireAtComplete}}}}},
			`{"items":[{"workload":"TRFD","kind":"DM","params":{"mem":"bypass:64","retire":"at-complete"}}]}`},
	} {
		if got := string(asJSON(t, tc.v)); got != tc.want {
			t.Errorf("%T encodes as\n%s\nwant\n%s", tc.v, got, tc.want)
		}
	}
	// The text forms refuse what they cannot name; the empty string is
	// the zero value where one has a name.
	var p machine.Params
	if err := json.Unmarshal([]byte(`{"mem":"cache:3x2@1"}`), &p); err == nil {
		t.Error("an invalid memory spec must fail")
	}
	if err := json.Unmarshal([]byte(`{"retire":"bogus"}`), &p); err == nil {
		t.Error("unknown retire policy must fail")
	}
	if err := json.Unmarshal([]byte(`{"mem":"","retire":""}`), &p); err != nil || p != (machine.Params{}) {
		t.Errorf("empty mem and retire decode as %+v (%v), want the zero params", p, err)
	}
	if err := json.Unmarshal([]byte(`{"kind":""}`), &out); err == nil {
		t.Error("an empty kind must fail")
	}
}

const testWorkload = "TRFD"

// newTestServer starts a daemon over an optional store and returns a
// one-replica fleet client bound to it.
func newTestServer(t *testing.T, cfg Config) (*Server, *FleetClient) {
	t.Helper()
	srv := NewServer(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	f, err := NewFleetClient([]string{hs.URL})
	if err != nil {
		t.Fatal(err)
	}
	return srv, f
}

// localRunner is a local memoizing runner over a workload — the oracle
// for searches and sweeps answered by the daemon.
func localRunner(t *testing.T, workload string) *sweep.Runner {
	t.Helper()
	runner := sweep.NewRunner(mustSuite(t, workload))
	runner.Parallelism = 1
	return runner
}

// localResult simulates one point locally, bypassing the daemon — the
// oracle for byte-identity checks.
func localResult(t *testing.T, workload string, pt sweep.Point) *engine.Result {
	t.Helper()
	res, err := mustSuite(t, workload).Run(pt.Kind, pt.P)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func asJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunEndpointMatchesLocalByteForByte: a one-point FleetClient.Run,
// which travels as a one-item /v1/batch/run, answers byte-identically
// to a local simulation.
func TestRunEndpointMatchesLocalByteForByte(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	pt := sweep.Point{Kind: machine.DM, P: machine.Params{Window: 16, MD: 30}}
	remote, err := client.Run(context.Background(), testWorkload, 1, "", pt)
	if err != nil {
		t.Fatal(err)
	}
	local := localResult(t, testWorkload, pt)
	if got, want := asJSON(t, remote), asJSON(t, local); !bytes.Equal(got, want) {
		t.Fatalf("remote result differs from local:\nremote %s\nlocal  %s", got, want)
	}
}

// TestRemovedEndpointsNotFound: the point-wise endpoints are gone —
// a single point or search is a batch of one — so posting to them
// answers 404 rather than reaching a handler.
func TestRemovedEndpointsNotFound(t *testing.T) {
	t.Parallel()
	handler := NewServer(Config{}).Handler()
	for _, path := range []string{"/v1/run", "/v1/sweep", "/v1/search"} {
		if code := postBody(handler, path, []byte(`{"workload":"TRFD","kind":"DM"}`)); code != http.StatusNotFound {
			t.Errorf("POST %s answered %d, want 404", path, code)
		}
	}
}

// TestFleetRunIsOneBatchItem pins FleetClient.Run's path: one point is
// exactly one /v1/batch/run request on a 3-replica fleet, answering
// what a local run does; with every replica refusing, Run returns no
// result and an error wrapping sweep.ErrUnavailable, the signal a
// Degrade runner falls back on.
func TestFleetRunIsOneBatchItem(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var paths []string
	var refuse atomic.Bool
	fleet, _, _ := newFleet(t, 3, nil, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			paths = append(paths, r.Method+" "+r.URL.Path)
			mu.Unlock()
			if refuse.Load() {
				writeError(w, http.StatusServiceUnavailable, errors.New("refused"))
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	fleet.backoffBase, fleet.backoffMax = time.Millisecond, time.Millisecond
	fp := mustSuite(t, testWorkload).Fingerprint()

	pt := sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: 12, MD: 20}}
	res, err := fleet.Run(context.Background(), testWorkload, 1, fp, pt)
	if err != nil {
		t.Fatal(err)
	}
	if want := localResult(t, testWorkload, pt); !reflect.DeepEqual(res, want) {
		t.Fatalf("Run result differs from local:\nremote %+v\nlocal  %+v", res, want)
	}
	if len(paths) != 1 || paths[0] != "POST /v1/batch/run" {
		t.Fatalf("one-point Run issued %v, want exactly one POST /v1/batch/run", paths)
	}

	refuse.Store(true)
	res, err = fleet.Run(context.Background(), testWorkload, 1, fp, sweep.Point{Kind: machine.DM, P: machine.Params{Window: 12, MD: 20}})
	if res != nil || !errors.Is(err, sweep.ErrUnavailable) {
		t.Fatalf("Run with every replica refusing = (%v, %v), want (nil, error wrapping sweep.ErrUnavailable)", res, err)
	}
	if len(paths) != 4 {
		t.Fatalf("refused Run issued %d requests, want one per replica (3): %v", len(paths)-1, paths[1:])
	}
}

// TestSweepEndpointWarmRunHitsCache: a sweep sent as one /v1/batch/run
// matches local simulation, persists every point, and a repeat of it
// is answered from the daemon's L1.
func TestSweepEndpointWarmRunHitsCache(t *testing.T) {
	t.Parallel()
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, client := newTestServer(t, Config{Store: store})
	var pts []sweep.Point
	for _, w := range []int{8, 16, 24} {
		pts = append(pts,
			sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: 30}},
			sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: w, MD: 30}})
	}
	cold, err := client.RunBatch(context.Background(), testWorkload, 1, "", pts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := client.RunBatch(context.Background(), testWorkload, 1, "", pts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := asJSON(t, warm), asJSON(t, cold); !bytes.Equal(got, want) {
		t.Fatal("warm sweep differs from cold sweep")
	}
	for i, res := range cold {
		local := localResult(t, testWorkload, pts[i])
		if !bytes.Equal(asJSON(t, res), asJSON(t, local)) {
			t.Fatalf("point %d: daemon result differs from local", i)
		}
	}
	stats := srv.Stats()
	if stats.Runner.Sims != int64(len(pts)) {
		t.Errorf("want %d simulations total, got %+v", len(pts), stats.Runner)
	}
	if stats.Runner.L1Hits < int64(len(pts)) {
		t.Errorf("warm sweep should be pure L1 hits: %+v", stats.Runner)
	}
	if stats.Store.Writes != int64(len(pts)) {
		t.Errorf("every simulated point should persist: %+v", stats.Store)
	}
	if stats.StoreEntries != len(pts) {
		t.Errorf("store should hold %d entries, has %d", len(pts), stats.StoreEntries)
	}
}

// TestSearchEndpointMatchesLocalSearch: a ratio search, sent as a
// one-item /v1/batch/search, answers exactly as the local search does.
func TestSearchEndpointMatchesLocalSearch(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	p := machine.Params{Window: 16, MD: 30}
	resp, err := client.RatioBatch(context.Background(), testWorkload, 1, "", []machine.Params{p})
	if err != nil {
		t.Fatal(err)
	}
	wantRatio, wantOK, err := metrics.EquivalentWindowRatio(localRunner(t, testWorkload), p)
	if err != nil {
		t.Fatal(err)
	}
	if resp[0].OK != wantOK || resp[0].Ratio != wantRatio {
		t.Fatalf("ratio search: got %+v, want ratio %v ok %v", resp[0], wantRatio, wantOK)
	}
}

func TestGCEndpoint(t *testing.T) {
	t.Parallel()
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		store.Put(fmt.Sprintf("key-%d", i), &engine.Result{Cycles: int64(i)})
	}
	_, fleet := newTestServer(t, Config{Store: store})
	client := fleet.Clients()[0]
	res, err := client.GC(context.Background(), sweep.GCPolicy{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 6 || res.Evicted != 4 || res.Remaining != 2 {
		t.Fatalf("GC over the API: %+v", res)
	}

	// Negative bounds must be refused, not silently treated as
	// unbounded (every other GC entry point rejects them too).
	var gcres sweep.GCResult
	if err := client.call(context.Background(), http.MethodPost, "/v1/cache/gc", map[string]any{"max_entries": -1}, &gcres); err == nil || !strings.Contains(err.Error(), "negative GC bound") {
		t.Errorf("negative GC bound: %v", err)
	}

	// Without a store the endpoint must refuse, not no-op.
	_, storeless := newTestServer(t, Config{})
	if _, err := storeless.Clients()[0].GC(context.Background(), sweep.GCPolicy{MaxEntries: 1}); err == nil || !strings.Contains(err.Error(), "no persistent store") {
		t.Errorf("GC without store: %v", err)
	}
}

// TestSkewRefused pins the version/fingerprint guards: a daemon must
// refuse (409) requests pinned to a different engine build or workload
// content rather than answer with results the client's own cache keys
// could never produce.
func TestSkewRefused(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	_, err := client.Clients()[0].BatchRun(context.Background(), []RunRequest{{
		Target: Target{Workload: testWorkload, EngineVersion: "engine-v0"},
		Point:  sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}},
	}})
	if err == nil || !strings.Contains(err.Error(), "engine version skew") || !strings.Contains(err.Error(), "409") {
		t.Errorf("engine version skew should be refused with 409: %v", err)
	}

	if _, err := client.Run(context.Background(), testWorkload, 1, "deadbeef", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}}); err == nil || !strings.Contains(err.Error(), "workload content skew") {
		t.Errorf("fingerprint skew should be refused: %v", err)
	}

	// A client built before store keys named the lowering inputs sends
	// the hash of its lowered programs (this is TRFD's, scale 1, classic
	// partition); the daemon must refuse it rather than answer under a
	// key the client never computed.
	const programContentFP = "d39d6c8eabefb13843668b60b78e0c0a391d30ec132e24ab5a1b615760ebcbe0"
	_, err = client.Clients()[0].BatchRun(context.Background(), []RunRequest{{
		Target: Target{Workload: testWorkload, EngineVersion: engine.Version, Fingerprint: programContentFP},
		Point:  sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}},
	}})
	if err == nil || !strings.Contains(err.Error(), "workload content skew") || !strings.Contains(err.Error(), "409") {
		t.Errorf("program-content fingerprint from an older client should be refused with 409: %v", err)
	}

	// The real fingerprint (what Runner.Remote sends) must pass.
	if _, err := client.Run(context.Background(), testWorkload, 1, mustSuite(t, testWorkload).Fingerprint(), sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 10}}); err != nil {
		t.Errorf("matching fingerprint refused: %v", err)
	}
}

// TestGeneratedWorkloadServes: a "spec:" workload travels by name over
// /v1/batch/run — the daemon regenerates it from the spec and answers
// byte-identically to a local run, and the source key the client pins
// is the proof both sides built the same trace and lowering inputs.
func TestGeneratedWorkloadServes(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	const spec = "spec:depth=5,ilp=2,mem=0.8,addr=gather,hazard=0.2,iters=32,seed=9"
	pt := sweep.Point{Kind: machine.DM, P: machine.Params{Window: 24, MD: 40}}
	remote, err := client.Run(context.Background(), spec, 1, mustSuite(t, spec).Fingerprint(), pt)
	if err != nil {
		t.Fatal(err)
	}
	local := localResult(t, spec, pt)
	if got, want := asJSON(t, remote), asJSON(t, local); !bytes.Equal(got, want) {
		t.Fatalf("remote generated-workload result differs from local:\nremote %s\nlocal  %s", got, want)
	}
	// A malformed spec is a 400 naming the field, not a 500 or a hang.
	_, err = client.Run(context.Background(), "spec:depth=0", 1, "", pt)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("malformed spec error %v does not name the field", err)
	}
}

// TestUnknownWorkloadErrorEnumeratesRegistry pins the daemon half of
// the enumeration-parity contract (cmd/repro's TestListOrderParity
// holds the other): the /v1/batch/run validation error for an unknown
// workload lists the registry in workloads.Names() order — the exact
// order repro -list prints — so operators comparing a 400 body against
// the CLI listing never see two orderings of the same catalog.
func TestUnknownWorkloadErrorEnumeratesRegistry(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	_, err := client.Run(context.Background(), "NOSUCH", 1, "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	want := fmt.Sprintf("%v", workloads.Names())
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("validation error %q does not enumerate the registry in canonical order (want substring %q)", err, want)
	}
}

func TestHealthz(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestBadRequests(t *testing.T) {
	t.Parallel()
	_, fleet := newTestServer(t, Config{})
	client := fleet.Clients()[0]
	post := func(path string, body any) error {
		var resp json.RawMessage
		return client.call(context.Background(), http.MethodPost, path, body, &resp)
	}
	run := func(item any) error { return post("/v1/batch/run", map[string]any{"items": []any{item}}) }
	raw := func(item string) error { return run(json.RawMessage(item)) }
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"unknown workload", func() error {
			_, err := fleet.Run(context.Background(), "NOSUCH", 1, "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}})
			return err
		}, "NOSUCH"},
		// A malformed value is refused at decode, naming the value.
		{"bad kind", func() error {
			return raw(`{"workload":"TRFD","kind":"VLIW"}`)
		}, `unknown machine kind "VLIW"`},
		{"no kind", func() error {
			return raw(`{"workload":"TRFD","params":{"window":8}}`)
		}, "names no machine kind"},
		{"null kind", func() error {
			return raw(`{"workload":"TRFD","kind":null}`)
		}, "names no machine kind"},
		// Fields no build serves are refused, naming the field.
		{"policy in a run item", func() error {
			return raw(`{"workload":"TRFD","policy":"balance","kind":"DM"}`)
		}, `unknown field "policy"`},
		{"op in a search item", func() error {
			return post("/v1/batch/search", json.RawMessage(`{"items":[{"workload":"TRFD","op":"ratio","params":{"window":8}}]}`))
		}, `unknown field "op"`},
		{"au_window in params", func() error {
			return raw(`{"workload":"TRFD","kind":"DM","params":{"window":8,"au_window":4}}`)
		}, `unknown field "au_window"`},
		{"bad retire", func() error {
			return raw(`{"workload":"TRFD","kind":"DM","params":{"retire":"never"}}`)
		}, `unknown retire policy "never"`},
		{"bad mem", func() error {
			return raw(`{"workload":"TRFD","kind":"DM","params":{"mem":"cache:3x2@1"}}`)
		}, `spec "cache:3x2@1"`},

		{"empty batch", func() error {
			return post("/v1/batch/run", BatchRunRequest{})
		}, "no items"},
		{"unknown field", func() error {
			return run(map[string]any{"workload": testWorkload, "kind": "DM", "paramz": map[string]any{}})
		}, "unknown field"},
	}
	for _, tc := range cases {
		err := tc.call()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want a 400 containing %q", tc.name, err, tc.want)
		}
	}
	// A number or an object where a name belongs is a type error at
	// decode, never a value.
	for _, tc := range shapeConfusedBodies {
		err := post(tc.path, json.RawMessage(tc.body))
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(err.Error(), "cannot unmarshal") {
			t.Errorf("%s %s: error %v, want a 400 type error", tc.path, tc.body, err)
		}
	}
}

// TestBatchRunEndpoint: a batch whose items span workloads answers
// each item exactly as a local simulation would, and a bad item
// anywhere fails the whole batch before anything simulates, naming the
// item.
func TestBatchRunEndpoint(t *testing.T) {
	t.Parallel()
	_, fleet := newTestServer(t, Config{})
	client := fleet.Clients()[0]
	mk := func(workload string, kind machine.Kind, w int) RunRequest {
		return RunRequest{
			Target: Target{Workload: workload, EngineVersion: engine.Version},
			Point:  sweep.Point{Kind: kind, P: machine.Params{Window: w, MD: 20}},
		}
	}
	items := []RunRequest{
		mk(testWorkload, machine.DM, 8),
		mk("ADM", machine.SWSM, 16),
		mk(testWorkload, machine.SWSM, 8),
		mk(testWorkload, machine.DM, 8), // duplicate: single-flight, same answer
	}
	results, err := client.BatchRun(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		local := localResult(t, item.Workload, item.Point)
		if !bytes.Equal(asJSON(t, results[i]), asJSON(t, local)) {
			t.Errorf("batch item %d differs from local", i)
		}
	}

	bad := append(items[:2:2], RunRequest{Target: Target{Workload: "NOSUCH"}, Point: items[0].Point})
	if _, err := client.BatchRun(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "batch item 2") {
		t.Errorf("bad target should fail the batch naming the index: %v", err)
	}
	skewed := []RunRequest{{Target: Target{Workload: testWorkload, EngineVersion: "engine-v0"}, Point: items[0].Point}}
	if _, err := client.BatchRun(context.Background(), skewed); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("skewed item should 409 the batch: %v", err)
	}
}

// TestBatchSearchEndpoint: a batch of ratio searches answers each curve
// — the items sharing every parameter but the DM window — exactly as a
// local metrics.RatioCurve over the same windows would, whatever order
// the items interleave in.
func TestBatchSearchEndpoint(t *testing.T) {
	t.Parallel()
	_, fleet := newTestServer(t, Config{})
	client := fleet.Clients()[0]
	target := Target{Workload: testWorkload, EngineVersion: engine.Version}
	items := []SearchRequest{
		{Target: target, Params: machine.Params{Window: 16, MD: 30}},
		{Target: target, Params: machine.Params{Window: 12, MD: 10}},
		{Target: target, Params: machine.Params{Window: 8, MD: 30}},
	}
	batched, err := client.BatchSearch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	runner := localRunner(t, testWorkload)
	for _, curve := range []struct {
		md  int
		idx []int
	}{{30, []int{0, 2}}, {10, []int{1}}} {
		windows := make([]int, len(curve.idx))
		for j, i := range curve.idx {
			windows[j] = items[i].Params.Window
		}
		want, err := metrics.RatioCurve(runner, machine.Params{MD: curve.md}, windows)
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range curve.idx {
			if got := batched[i]; got.Ratio != want[j].Ratio || got.OK != want[j].OK {
				t.Errorf("batch item %d: %+v != local %+v", i, got, want[j])
			}
		}
	}
}

// TestBatchSearchReadsLocalProbes: a curve searched by the daemon
// simulates exactly the probes the same curve simulates locally. Every
// runner prunes the probes a certified lower bound proves miss, hooked
// or not, so a hooked reader sends exactly the points a local curve
// over a store simulates: the daemon must simulate as many, and
// re-requesting them must cost it nothing.
func TestBatchSearchReadsLocalProbes(t *testing.T) {
	t.Parallel()
	srv, fleet := newTestServer(t, Config{})
	windows := []int{20, 50, 10, 40, 30}
	suite := mustSuite(t, testWorkload)
	p := machine.Params{MD: 40}
	reader := sweep.NewRunner(suite)
	var read []sweep.Point
	reader.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) {
		read = append(read, pts...)
		out := make([]*engine.Result, len(pts))
		for i, pt := range pts {
			var err error
			if out[i], err = suite.Run(pt.Kind, pt.P); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if _, err := metrics.RatioCurve(reader, p, windows); err != nil {
		t.Fatal(err)
	}
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	local := sweep.NewRunner(suite)
	local.Store = store
	want, err := metrics.RatioCurve(local, p, windows)
	if err != nil {
		t.Fatal(err)
	}
	// The store holds exactly the points the local curve simulated: a
	// runner over it whose hook fails reads only those.
	probe := sweep.NewRunner(suite)
	probe.Store = store
	probe.RemoteBatch = func([]sweep.Point) ([]*engine.Result, error) { return nil, errors.New("not simulated") }
	for _, pt := range read {
		if _, err := probe.Run(pt); err != nil {
			t.Errorf("the hook received %v, which the local curve did not simulate", pt)
		}
	}
	if st := local.Stats(); st.Sims != int64(len(read)) || st.Pruned == 0 || reader.Stats().Pruned != st.Pruned {
		t.Fatalf("the local curve simulated %d points and pruned %d; the hook received %d, the reader pruned %d", st.Sims, st.Pruned, len(read), reader.Stats().Pruned)
	}

	params := make([]machine.Params, len(windows))
	for i, w := range windows {
		params[i] = machine.Params{Window: w, MD: 40}
	}
	got, err := fleet.RatioBatch(context.Background(), testWorkload, 1, suite.Fingerprint(), params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("daemon curve %v, local %v", got, want)
	}
	sims := srv.Stats().Runner.Sims
	if sims != int64(len(read)) {
		t.Errorf("daemon simulated %d points, the local curve %d", sims, len(read))
	}
	if _, err := fleet.RunBatch(context.Background(), testWorkload, 1, suite.Fingerprint(), read); err != nil {
		t.Fatal(err)
	}
	if after := srv.Stats().Runner.Sims; after != sims {
		t.Errorf("the local curve's simulated probes cost the daemon %d new simulations: it simulated others", after-sims)
	}
}

// TestConcurrencyLimitQueues proves MaxConcurrent=1 serializes without
// rejecting: concurrent requests all succeed.
func TestConcurrencyLimitQueues(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{MaxConcurrent: 1})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Run(context.Background(), testWorkload, 1, "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8 + i, MD: 10}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d under concurrency limit: %v", i, err)
		}
	}
}

// deadFleet returns a one-replica fleet over an address nothing
// listens on (port 1).
func deadFleet(t *testing.T) *FleetClient {
	t.Helper()
	f, err := NewFleetClient([]string{"http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRemoteContext is the repro -remote wiring end to end: an
// experiments.Context with a one-replica fleet attached runs all cacheable
// points remotely (zero local simulations) and produces results
// byte-identical to a purely local context.
func TestRemoteContext(t *testing.T) {
	t.Parallel()
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, client := newTestServer(t, Config{Store: store})

	run := func(ctx *experiments.Context) []*engine.Result {
		t.Helper()
		r, err := ctx.Runner(testWorkload)
		if err != nil {
			t.Fatal(err)
		}
		var pts []sweep.Point
		for _, w := range []int{8, 16} {
			for _, md := range []int{0, 30} {
				pts = append(pts, sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: md}})
			}
		}
		results, err := r.RunAll(pts)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	localCtx := experiments.NewContext()
	localRes := run(localCtx)

	remoteCtx := experiments.NewContext()
	remoteCtx.RemoteBatch = func(workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error) {
		return client.RunBatch(context.Background(), workload, scale, fingerprint, pts)
	}
	remoteRes := run(remoteCtx)

	if got, want := asJSON(t, remoteRes), asJSON(t, localRes); !bytes.Equal(got, want) {
		t.Fatal("remote context results differ from local")
	}
	stats := remoteCtx.CacheStats()
	if stats.Sims != 0 {
		t.Errorf("remote context simulated %d points locally, want 0", stats.Sims)
	}
	if stats.RemoteHits != 4 {
		t.Errorf("want 4 remote hits, got %+v", stats)
	}
	if srv.Stats().Runner.Sims != 4 {
		t.Errorf("daemon should have simulated the 4 points: %+v", srv.Stats().Runner)
	}

	// A dead daemon must fail the run loudly, not fall back to local.
	deadCtx := experiments.NewContext()
	dead := deadFleet(t)
	deadCtx.RemoteBatch = func(workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error) {
		return dead.RunBatch(context.Background(), workload, scale, fingerprint, pts)
	}
	r, err := deadCtx.Runner(testWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}}); err == nil {
		t.Error("unreachable daemon must surface as an error")
	}
}

// TestClientSearchesMatchLocal: the searches a client runs itself (the
// C1 cutoff scan and the complexity study's equivalent windows) prune
// and stop where they run, so through a daemon hooked by RemoteBatch
// alone they render exactly as locally, the daemon simulates exactly the
// points the local context does, and the client prunes as many.
func TestClientSearchesMatchLocal(t *testing.T) {
	t.Parallel()
	type renderer interface{ Render(io.Writer) error }
	studies := []struct {
		name string
		run  func(*experiments.Context) (renderer, error)
	}{
		{"Cutoffs", func(c *experiments.Context) (renderer, error) { return c.Cutoffs() }},
		{"ComplexityStudy", func(c *experiments.Context) (renderer, error) { return c.ComplexityStudy() }},
	}
	for _, st := range studies {
		render := func(ctx *experiments.Context) []byte {
			t.Helper()
			res, err := st.run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		localCtx := experiments.NewContext()
		want := render(localCtx)
		srv, client := newTestServer(t, Config{})
		remoteCtx := experiments.NewContext()
		remoteCtx.RemoteBatch = func(workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error) {
			return client.RunBatch(context.Background(), workload, scale, fingerprint, pts)
		}
		if got := render(remoteCtx); !bytes.Equal(got, want) {
			t.Errorf("%s: remote output differs from local:\n%s\nwant:\n%s", st.name, got, want)
		}
		local, remote, server := localCtx.CacheStats(), remoteCtx.CacheStats(), srv.Stats().Runner
		if server.Sims != local.Sims || remote.Sims != 0 || remote.Pruned != local.Pruned {
			t.Errorf("%s: daemon simulated %d, client %d and pruned %d; local simulated %d and pruned %d", st.name, server.Sims, remote.Sims, remote.Pruned, local.Sims, local.Pruned)
		}
	}
}

// TestStatsEndpointShape pins the JSON key names scripts (CI's smoke
// job) depend on.
func TestStatsEndpointShape(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{})
	if _, err := client.Run(context.Background(), testWorkload, 1, "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 10}}); err != nil {
		t.Fatal(err)
	}
	hres, err := http.Get(client.Clients()[0].BaseURL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(hres.Body); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"runner"`, `"hit_rate"`, `"store"`, `"store_entries"`, `"uptime_seconds"`, `"requests"`, `"Sims"`, `"RemoteHits"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("stats JSON missing %s: %s", key, buf.String())
		}
	}
}

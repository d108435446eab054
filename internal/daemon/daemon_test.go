package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// TestWireParamsCoverMachineParams is the protocol's field-count guard,
// mirroring TestCacheKeyCoversAllParams: machine.Params and the wire
// Params declare the same fields. Adding a machine parameter without extending the protocol — which
// would silently simulate the default value on the daemon — fails here.
func TestWireParamsCoverMachineParams(t *testing.T) {
	t.Parallel()
	names := func(typ reflect.Type) map[string]bool {
		m := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			m[typ.Field(i).Name] = true
		}
		return m
	}
	mp := names(reflect.TypeOf(machine.Params{}))
	wp := names(reflect.TypeOf(Params{}))
	for n := range mp {
		if !wp[n] {
			t.Errorf("machine.Params.%s has no wire counterpart: extend the protocol (daemon.Params, ToParams, Machine)", n)
		}
	}
	for n := range wp {
		if !mp[n] {
			t.Errorf("wire Params.%s has no machine counterpart: dead protocol surface, or a rename that forgot one side", n)
		}
	}
}

func TestParamsRoundTrip(t *testing.T) {
	t.Parallel()
	in := machine.Params{
		Window: 64, AUWindow: 32, DUWindow: 48, MD: 60, FPLat: 5, CopyLat: 2,
		AUWidth: 3, DUWidth: 6, Width: 9, DispatchWidth: 4, MemQueue: 128,
		CollectESW: true, HoldSendSlots: true, Retire: machine.RetireAtComplete,
		Mem: memsys.DefaultCacheSpec(),
	}
	wp := ToParams(in)
	out, err := wp.Machine()
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed params:\nin  %+v\nout %+v", in, out)
	}
	// Without a memory model the wire form carries no "mem" key, so
	// requests keep the bytes they had before the field existed.
	if b, err := json.Marshal(ToParams(machine.Params{Window: 8})); err != nil || string(b) != `{"window":8}` {
		t.Errorf("spec-free params encode as %s (%v), want {\"window\":8}", b, err)
	}
	if _, err := (Params{Mem: "cache:3x2@1"}).Machine(); err == nil {
		t.Error("an invalid memory spec must fail")
	}
	if _, err := (Params{Retire: "bogus"}).Machine(); err == nil {
		t.Error("unknown retire policy must fail")
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
	fleet.BackoffBase, fleet.BackoffMax = time.Millisecond, time.Millisecond
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
	resp, err := client.BatchSearch(context.Background(), testWorkload, 1, "", []SearchRequest{{Op: SearchRatio, Params: Params{Window: 16, MD: 30}}})
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
	if err := client.post(context.Background(), "/v1/cache/gc", map[string]any{"max_entries": -1}, &gcres); err == nil || !strings.Contains(err.Error(), "negative GC bound") {
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
		Point:  Point{Kind: "DM", Params: Params{Window: 8}},
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
		Point:  Point{Kind: "DM", Params: Params{Window: 8}},
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
	if err := client.WaitHealthy(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestBadRequests(t *testing.T) {
	t.Parallel()
	_, fleet := newTestServer(t, Config{})
	client := fleet.Clients()[0]
	post := func(path string, body any) error {
		var resp json.RawMessage
		return client.post(context.Background(), path, body, &resp)
	}
	run := func(item any) error { return post("/v1/batch/run", map[string]any{"items": []any{item}}) }
	search := func(item SearchRequest) error {
		item.Target = Target{Workload: testWorkload}
		return post("/v1/batch/search", BatchSearchRequest{Items: []SearchRequest{item}})
	}
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"unknown workload", func() error {
			_, err := fleet.Run(context.Background(), "NOSUCH", 1, "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}})
			return err
		}, "NOSUCH"},
		{"bad kind", func() error {
			return run(RunRequest{Target: Target{Workload: testWorkload}, Point: Point{Kind: "VLIW"}})
		}, "unknown machine kind"},
		{"bad policy", func() error {
			return run(RunRequest{Target: Target{Workload: testWorkload, Policy: "random"}, Point: Point{Kind: "DM"}})
		}, "unknown partition policy"},
		{"bad retire", func() error {
			return run(RunRequest{Target: Target{Workload: testWorkload}, Point: Point{Kind: "DM", Params: Params{Retire: "never"}}})
		}, "unknown retire policy"},
		{"empty batch", func() error {
			return post("/v1/batch/run", BatchRunRequest{})
		}, "no items"},
		{"bad search op", func() error {
			return search(SearchRequest{Op: "median"})
		}, "unknown search op"},
		{"removed window search op", func() error {
			return search(SearchRequest{Op: "window"})
		}, "unknown search op"},
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
}

// TestBatchRunEndpoint: a batch whose items span workloads answers
// each item exactly as a local simulation would, and a bad item
// anywhere fails the whole batch before anything simulates, naming the
// item.
func TestBatchRunEndpoint(t *testing.T) {
	t.Parallel()
	_, fleet := newTestServer(t, Config{})
	client := fleet.Clients()[0]
	mk := func(workload string, kind string, w int) RunRequest {
		return RunRequest{
			Target: Target{Workload: workload, EngineVersion: engine.Version},
			Point:  Point{Kind: kind, Params: Params{Window: w, MD: 20}},
		}
	}
	items := []RunRequest{
		mk(testWorkload, "DM", 8),
		mk("ADM", "SWSM", 16),
		mk(testWorkload, "SWSM", 8),
		mk(testWorkload, "DM", 8), // duplicate: single-flight, same answer
	}
	results, err := client.BatchRun(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		pt, err := item.Point.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		local := localResult(t, item.Workload, pt)
		if !bytes.Equal(asJSON(t, results[i]), asJSON(t, local)) {
			t.Errorf("batch item %d differs from local", i)
		}
	}

	bad := append(items[:2:2], RunRequest{Target: Target{Workload: testWorkload}, Point: Point{Kind: "VLIW"}})
	if _, err := client.BatchRun(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "batch item 2") {
		t.Errorf("bad item should fail the batch naming the index: %v", err)
	}
	skewed := []RunRequest{{Target: Target{Workload: testWorkload, EngineVersion: "engine-v0"}, Point: Point{Kind: "DM", Params: Params{Window: 8}}}}
	if _, err := client.BatchRun(context.Background(), skewed); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("skewed item should 409 the batch: %v", err)
	}
}

// TestBatchSearchEndpoint: a batch of ratio searches answers each
// item exactly as a local search over a sweep.Runner would.
func TestBatchSearchEndpoint(t *testing.T) {
	t.Parallel()
	_, fleet := newTestServer(t, Config{})
	client := fleet.Clients()[0]
	target := Target{Workload: testWorkload, EngineVersion: engine.Version}
	items := []SearchRequest{
		{Target: target, Op: SearchRatio, Params: Params{Window: 16, MD: 30}},
		{Target: target, Op: SearchRatio, Params: Params{Window: 8, MD: 30}},
	}
	batched, err := client.BatchSearch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	runner := localRunner(t, testWorkload)
	for i, item := range items {
		p, err := item.Params.Machine()
		if err != nil {
			t.Fatal(err)
		}
		var want SearchResponse
		want.Ratio, want.OK, err = metrics.EquivalentWindowRatio(runner, p)
		if err != nil {
			t.Fatal(err)
		}
		if batched[i] != want {
			t.Errorf("batch item %d: %+v != local %+v", i, batched[i], want)
		}
	}
	if _, err := client.BatchSearch(context.Background(), []SearchRequest{{Target: target, Op: "median"}}); err == nil || !strings.Contains(err.Error(), "unknown search op") {
		t.Errorf("bad op in a batch: %v", err)
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
	remoteCtx.Remote = func(workload string, scale int, fingerprint string, pt sweep.Point) (*engine.Result, error) {
		return client.Run(context.Background(), workload, scale, fingerprint, pt)
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
	deadCtx.Remote = func(workload string, scale int, fingerprint string, pt sweep.Point) (*engine.Result, error) {
		return dead.Run(context.Background(), workload, scale, fingerprint, pt)
	}
	r, err := deadCtx.Runner(testWorkload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}}); err == nil {
		t.Error("unreachable daemon must surface as an error")
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

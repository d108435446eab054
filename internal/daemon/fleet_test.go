package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/machine"
	"daesim/internal/metrics"
	"daesim/internal/partition"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// newFleet spins n in-process daemons and a FleetClient routing over
// them. mkcfg, when non-nil, configures replica i; wrap, when non-nil,
// may replace replica i's handler (fault injection).
func newFleet(t *testing.T, n int, mkcfg func(i int) Config, wrap func(i int, h http.Handler) http.Handler) (*FleetClient, []*Server, []*httptest.Server) {
	t.Helper()
	servers := make([]*Server, n)
	https := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := Config{}
		if mkcfg != nil {
			cfg = mkcfg(i)
		}
		servers[i] = NewServer(cfg)
		h := http.Handler(servers[i].Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		https[i] = httptest.NewServer(h)
		t.Cleanup(https[i].Close)
		urls[i] = https[i].URL
	}
	fleet, err := NewFleetClient(urls)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, servers, https
}

// fleetContext returns an experiments context with every remote hook
// attached to the fleet — the repro -remote url1,url2,... wiring.
func fleetContext(fleet *FleetClient) *experiments.Context {
	ctx := experiments.NewContext()
	ctx.RemoteBatch = func(workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error) {
		return fleet.RunBatch(context.Background(), workload, scale, fingerprint, pts)
	}
	ctx.RemoteSearch = func(workload string, scale int, fingerprint string, params []machine.Params) ([]experiments.RatioAnswer, error) {
		return fleet.RatioBatch(context.Background(), workload, scale, fingerprint, params)
	}
	return ctx
}

// TestFleetMemoryStudiesByteIdentical: the ablations (A5's bypass
// buffers) and the cache study (A7's hierarchies) render through a
// 3-replica fleet byte-identically to a local render, hit and miss
// rates included, with zero local simulations.
func TestFleetMemoryStudiesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders two studies twice; skipped with -short")
	}
	t.Parallel()
	fleet, _, _ := newFleet(t, 3, nil, nil)
	render := func(ctx *experiments.Context) (ablations, cache []byte) {
		t.Helper()
		var a, c bytes.Buffer
		abl, _ := experiments.Lookup("ablations")
		arts, err := abl.Run(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := arts[0].Render(&a); err != nil {
			t.Fatal(err)
		}
		study, err := ctx.CacheStudy()
		if err != nil {
			t.Fatal(err)
		}
		if err := study.Render(&c); err != nil {
			t.Fatal(err)
		}
		return a.Bytes(), c.Bytes()
	}
	localA, localC := render(experiments.NewContext())
	remoteCtx := fleetContext(fleet)
	remoteA, remoteC := render(remoteCtx)
	if !bytes.Equal(localA, remoteA) {
		t.Errorf("fleet ablations.txt differs from local:\n%s\nlocal:\n%s", remoteA, localA)
	}
	if !bytes.Equal(localC, remoteC) {
		t.Errorf("fleet cache.txt differs from local:\n%s\nlocal:\n%s", remoteC, localC)
	}
	if !bytes.Contains(remoteA, []byte("bypass=256 lines (hit ")) || !bytes.Contains(remoteC, []byte("miss rate")) {
		t.Error("the renders lack the A5 and A7 rows")
	}
	if st := remoteCtx.CacheStats(); st.Sims != 0 || st.RemoteHits == 0 {
		t.Errorf("fleet context must simulate nothing locally: %+v", st)
	}
}

// TestFleetPolicyStudy: the policies registry row renders through a
// 3-replica fleet byte-identically to a local render and simulates
// nothing locally. Its rows under non-default policies run on runners
// over repartitioned suites, which must take the context's remote hooks
// bound to their own fingerprint.
func TestFleetPolicyStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the policy study twice; skipped with -short")
	}
	t.Parallel()
	fleet, _, _ := newFleet(t, 3, nil, nil)
	row, ok := experiments.Lookup("policies")
	if !ok {
		t.Fatal("no policies row in the registry")
	}
	render := func(ctx *experiments.Context) []byte {
		t.Helper()
		arts, err := row.Run(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if len(arts) != 1 || arts[0].File != "policies.txt" {
			t.Fatalf("policies row writes %v, want policies.txt", arts)
		}
		if err := arts[0].Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	local := render(experiments.NewContext())
	remoteCtx := fleetContext(fleet)
	remote := render(remoteCtx)
	if !bytes.Equal(local, remote) {
		t.Errorf("fleet policies.txt differs from local:\n%s\nlocal:\n%s", remote, local)
	}
	if st := remoteCtx.CacheStats(); st.Sims != 0 || st.RemoteHits == 0 {
		t.Errorf("fleet context must simulate nothing locally: %+v", st)
	}
}

// TestFleetFigure7ByteIdentical is the fleet's end-to-end contract: a
// 3-replica fleet reproduces Figure 7 (and the Figure 4 speedup sweep,
// which exercises the batched point path where Figure 7 exercises the
// batched search path) byte-identically to a purely local run, with
// zero local simulations, every replica serving traffic, and the point
// keyspace spread across replicas with no owner above 60%.
func TestFleetFigure7ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 7 reproduction; skipped with -short")
	}
	t.Parallel()
	fleet, servers, _ := newFleet(t, 3, nil, nil)

	render := func(ctx *experiments.Context) []byte {
		t.Helper()
		var buf bytes.Buffer
		ratio, err := ctx.RatioFigure("FLO52Q")
		if err != nil {
			t.Fatal(err)
		}
		if err := ratio.Render(&buf); err != nil {
			t.Fatal(err)
		}
		fig, err := ctx.Figure("FLO52Q")
		if err != nil {
			t.Fatal(err)
		}
		if err := fig.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	local := render(experiments.NewContext())
	remoteCtx := fleetContext(fleet)
	remote := render(remoteCtx)
	if !bytes.Equal(local, remote) {
		t.Fatal("fleet Figure 7 + Figure 4 output differs from local")
	}

	stats := remoteCtx.CacheStats()
	if stats.Sims != 0 {
		t.Errorf("fleet context simulated %d points locally, want 0", stats.Sims)
	}
	if stats.RemoteSearches == 0 || stats.RemoteHits == 0 {
		t.Errorf("fleet context should report remote traffic, got %+v", stats)
	}
	var total int64
	loads := make([]int64, len(servers))
	for i, srv := range servers {
		loads[i] = srv.Stats().Requests
		if loads[i] == 0 {
			t.Errorf("replica %d served no requests", i)
		}
		total += loads[i]
	}
	t.Logf("per-replica requests: %v", loads)

	// Key-distribution balance over the realistic point keyspace of the
	// figure experiments — the speedup grid plus the ratio searches'
	// SWSM probe space — against this fleet's live ring (whose member
	// names, httptest's random ports, differ every run): no replica may
	// own more than 60%.
	suite := mustSuite(t, "FLO52Q")
	counts := make([]int, 3)
	n := 0
	own := func(pt sweep.Point) {
		counts[fleet.Ring().Owner(routeKey("FLO52Q", 1, suite.Fingerprint(), pt))]++
		n++
	}
	for _, kind := range []machine.Kind{machine.DM, machine.SWSM} {
		for _, md := range []int{0, 60} {
			for _, w := range experiments.FigureWindows {
				own(sweep.Point{Kind: kind, P: machine.Params{Window: w, MD: md}})
			}
		}
	}
	for _, md := range experiments.RatioMDs {
		for w := 1; w <= 1024; w++ {
			own(sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: w, MD: md}})
		}
	}
	for i, c := range counts {
		if share := float64(c) / float64(n); share > 0.60 {
			t.Errorf("replica %d owns %.1f%% of the figure keyspace (want <= 60%%)", i, 100*share)
		}
	}
	t.Logf("figure keyspace ownership: %v of %d", counts, n)
}

// dyingHandler serves normally for its first `healthy` simulation
// requests, then answers everything with 503 — the shape a draining or
// dying replica presents to clients (the CI fleet smoke SIGTERMs a real
// sweepd; this pins the client-side failover deterministically).
type dyingHandler struct {
	h       http.Handler
	served  atomic.Int64
	healthy int64
}

func (d *dyingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/healthz" && d.served.Add(1) > d.healthy {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"replica dying"}`))
		return
	}
	d.h.ServeHTTP(w, r)
}

// TestFleetFailoverMidSweep pins the retry path: one replica dies after
// its first two requests, mid-sweep; every point still completes,
// byte-identical to local, served by the survivors.
func TestFleetFailoverMidSweep(t *testing.T) {
	t.Parallel()
	var dying *dyingHandler
	fleet, servers, _ := newFleet(t, 3, nil, func(i int, h http.Handler) http.Handler {
		if i == 2 {
			dying = &dyingHandler{h: h, healthy: 2}
			return dying
		}
		return h
	})
	fleet.Cooldown = 50 * time.Millisecond

	var pts []sweep.Point
	for w := 4; w <= 96; w += 4 {
		pts = append(pts, sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: 30}})
	}
	suite := mustSuite(t, testWorkload)
	// Several waves so the death lands mid-sweep, not before or after.
	var remote []*engine.Result
	for i := 0; i < len(pts); i += 6 {
		end := i + 6
		if end > len(pts) {
			end = len(pts)
		}
		res, err := fleet.RunBatch(context.Background(), testWorkload, 1, suite.Fingerprint(), pts[i:end])
		if err != nil {
			t.Fatalf("wave %d: fleet sweep did not survive the replica death: %v", i/6, err)
		}
		remote = append(remote, res...)
	}
	if dying.served.Load() <= 2 {
		t.Fatalf("the dying replica was never routed to (served %d), failover untested", dying.served.Load())
	}
	for i, pt := range pts {
		local := localResult(t, testWorkload, pt)
		if !bytes.Equal(asJSON(t, remote[i]), asJSON(t, local)) {
			t.Fatalf("point %d differs from local after failover", i)
		}
	}
	if s := servers[0].Stats().Requests + servers[1].Stats().Requests; s == 0 {
		t.Error("survivors served nothing")
	}
}

// TestFleetDeadReplicaFromStart: a replica that never comes up
// (connection refused) must not fail calls routed to it — its keys fall
// over to the ring's next owners.
func TestFleetDeadReplicaFromStart(t *testing.T) {
	t.Parallel()
	fleet, _, https := newFleet(t, 3, nil, nil)
	fleet.Cooldown = 50 * time.Millisecond
	https[1].Close() // now refuses connections

	suite := mustSuite(t, testWorkload)
	var pts []sweep.Point
	for _, w := range []int{8, 16, 24, 32, 40, 48} {
		pts = append(pts, sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: w, MD: 20}})
	}
	res, err := fleet.RunBatch(context.Background(), testWorkload, 1, suite.Fingerprint(), pts)
	if err != nil {
		t.Fatalf("fleet with a dead replica failed the sweep: %v", err)
	}
	for i, pt := range pts {
		local := localResult(t, testWorkload, pt)
		if !bytes.Equal(asJSON(t, res[i]), asJSON(t, local)) {
			t.Fatalf("point %d differs from local", i)
		}
	}
}

// TestFleetSkewNotRetried: refusals that would repeat on every replica
// (409 fingerprint skew) must fail immediately, not burn the retry
// budget masking a misconfiguration.
func TestFleetSkewNotRetried(t *testing.T) {
	t.Parallel()
	fleet, servers, _ := newFleet(t, 3, nil, nil)
	_, err := fleet.Run(context.Background(), testWorkload, 1, "deadbeef", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}})
	if err == nil || !strings.Contains(err.Error(), "workload content skew") {
		t.Fatalf("fingerprint skew should surface immediately: %v", err)
	}
	var total int64
	for _, srv := range servers {
		total += srv.Stats().Requests
	}
	if total != 1 {
		t.Errorf("skew refusal should cost exactly one request, servers saw %d", total)
	}
}

// TestFleetPartitionPolicies: a context partitioning under any policy
// renders Figure 4 through a fleet exactly as it does locally, with
// zero local simulations. The remote hooks carry no policy, so the
// daemon finds the suite by its fingerprint; FLO52Q and TRACK are
// workloads whose non-classic assignments differ from the classic one.
// A fingerprint no policy produces is still refused with 409.
func TestFleetPartitionPolicies(t *testing.T) {
	t.Parallel()
	fleet, _, _ := newFleet(t, 1, nil, nil)
	for _, w := range []string{"FLO52Q", "TRACK"} {
		for _, pol := range partition.Policies() {
			local := experiments.NewContext()
			local.Policy = pol
			remote := fleetContext(fleet)
			remote.Policy = pol
			want, err := local.FigureNamed(4, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := remote.FigureNamed(4, w)
			if err != nil {
				t.Fatalf("%s under %s through the fleet: %v", w, pol, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s under %s: fleet figure differs from local", w, pol)
			}
			if st := remote.CacheStats(); st.Sims != 0 {
				t.Errorf("%s under %s: fleet context simulated %d points locally", w, pol, st.Sims)
			}
		}
	}
	_, err := fleet.Run(context.Background(), "FLO52Q", 1, "garbage", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8}})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict || !strings.Contains(err.Error(), "partition policy") {
		t.Errorf("a fingerprint no policy produces: %v, want a 409 naming the partition policy", err)
	}
}

// TestFleetMembershipGuards pins the Health checks: a replica
// advertising a different member list, or two replicas advertising the
// same id, is refused at attach time, while silent (non-advertising)
// replicas with unique ids pass.
func TestFleetMembershipGuards(t *testing.T) {
	t.Parallel()
	fleet, _, _ := newFleet(t, 2, func(i int) Config {
		return Config{ReplicaID: fmt.Sprintf("r%d", i)}
	}, nil)
	if err := fleet.Health(context.Background()); err != nil {
		t.Fatalf("healthy fleet refused: %v", err)
	}
	if err := fleet.WaitHealthy(context.Background(), time.Second); err != nil {
		t.Fatalf("WaitHealthy on a healthy fleet: %v", err)
	}

	skewed, _, _ := newFleet(t, 2, func(i int) Config {
		return Config{Fleet: []string{"http://other-a:1", "http://other-b:2"}}
	}, nil)
	if err := skewed.Health(context.Background()); err == nil || !strings.Contains(err.Error(), "membership skew") {
		t.Errorf("advertised-membership mismatch should be refused: %v", err)
	}

	dup, _, _ := newFleet(t, 2, func(i int) Config {
		return Config{ReplicaID: "same"}
	}, nil)
	if err := dup.Health(context.Background()); err == nil || !strings.Contains(err.Error(), "replica id") {
		t.Errorf("duplicate replica ids should be refused: %v", err)
	}

	// The advertised-list comparison itself ignores order and trailing
	// slashes — exactly the differences deployment configs accumulate.
	if !sameMembers([]string{"http://b:2/", "http://a:1"}, []string{"http://a:1", "http://b:2"}) {
		t.Error("sameMembers must ignore order and trailing slashes")
	}
	if sameMembers([]string{"http://a:1"}, []string{"http://a:1", "http://b:2"}) {
		t.Error("sameMembers must reject differing lengths")
	}
}

// TestFleetBatchedSearchRequestSavings pins the acceptance bound: a
// batched equivalent-window ratio curve costs at least 5x fewer HTTP
// requests than the same curve probed point-wise.
func TestFleetBatchedSearchRequestSavings(t *testing.T) {
	t.Parallel()
	suiteFP := mustSuite(t, testWorkload).Fingerprint()
	windows := []int{8, 16, 24}
	md := 30

	requests := func(servers []*Server) int64 {
		var total int64
		for _, srv := range servers {
			total += srv.Stats().Requests
		}
		return total
	}

	// Point-wise: a local search whose probes each travel alone.
	pwFleet, pwServers, _ := newFleet(t, 3, nil, nil)
	pwCtx := experiments.NewContext()
	// No RemoteBatch, no RemoteSearch: each probe travels alone.
	pwCtx.Remote = func(workload string, scale int, fingerprint string, pt sweep.Point) (*engine.Result, error) {
		return pwFleet.Run(context.Background(), workload, scale, fingerprint, pt)
	}
	pwRunner, err := pwCtx.Runner(testWorkload)
	if err != nil {
		t.Fatal(err)
	}
	var pwAnswers []experiments.RatioAnswer
	for _, w := range windows {
		ratio, ok, err := metrics.EquivalentWindowRatio(pwRunner, machine.Params{Window: w, MD: md})
		if err != nil {
			t.Fatal(err)
		}
		pwAnswers = append(pwAnswers, experiments.RatioAnswer{Ratio: ratio, OK: ok})
	}
	pointwise := requests(pwServers)

	// Batched: the whole curve as one server-side batch.
	bFleet, bServers, _ := newFleet(t, 3, nil, nil)
	params := make([]machine.Params, len(windows))
	for i, w := range windows {
		params[i] = machine.Params{Window: w, MD: md}
	}
	bAnswers, err := bFleet.RatioBatch(context.Background(), testWorkload, 1, suiteFP, params)
	if err != nil {
		t.Fatal(err)
	}
	batched := requests(bServers)

	for i := range windows {
		if pwAnswers[i] != bAnswers[i] {
			t.Errorf("window %d: point-wise answer %+v != batched %+v", windows[i], pwAnswers[i], bAnswers[i])
		}
	}
	t.Logf("requests: point-wise %d, batched %d (%.1fx)", pointwise, batched, float64(pointwise)/float64(batched))
	if pointwise < 5*batched {
		t.Errorf("batched search must cost >= 5x fewer requests: point-wise %d, batched %d", pointwise, batched)
	}
}

// mustSuite builds a workload suite for key/fingerprint computations.
func mustSuite(t *testing.T, workload string) *machine.Suite {
	t.Helper()
	tr, err := workloads.Build(workload, 1)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := machine.NewSuite(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

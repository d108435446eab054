package daemon

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/obsv"
	"daesim/internal/sweep"
)

// specFields asserts the spec table and the snapshot struct cover each
// other exactly — a new stats field with no metric, or a spec entry
// naming a field that no longer exists, both fail here.
func specFields(t *testing.T, structName string, typ reflect.Type, specs map[string]metricSpec) {
	t.Helper()
	have := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		have[name] = true
		if _, ok := specs[name]; !ok {
			t.Errorf("%s.%s has no obsv metric: add it to the spec table in metrics.go", structName, name)
		}
	}
	for name := range specs {
		if !have[name] {
			t.Errorf("metrics.go maps %s.%s, which does not exist: stale spec entry", structName, name)
		}
	}
}

// TestMetricsParity is the field-name audit of the observability layer
// (in the style of TestWireParamsCoverMachineParams): every field of
// CacheStats, StoreStats, FleetMetrics and StatsResponse must have a
// corresponding obsv metric, and every promised metric must actually
// appear in a live server registry's snapshot.
func TestMetricsParity(t *testing.T) {
	t.Parallel()
	specFields(t, "sweep.CacheStats", reflect.TypeOf(sweep.CacheStats{}), cacheStatsMetrics)
	specFields(t, "sweep.StoreStats", reflect.TypeOf(sweep.StoreStats{}), storeStatsMetrics)
	specFields(t, "FleetMetrics", reflect.TypeOf(FleetMetrics{}), fleetMetricsSpecs)

	// StatsResponse fields map to metric families directly, except the
	// embedded snapshots, which expand through the spec tables above.
	statsResponseMetrics := map[string][]string{
		"Runner":        nil,
		"HitRate":       {"daesim_runner_hit_rate"},
		"Store":         nil,
		"StoreEntries":  {"daesim_store_entries"},
		"UptimeSeconds": {"daesim_uptime_seconds"},
		"Requests":      {"daesim_requests_admitted_total"},
		"Received":      {"daesim_requests_received_total"},
		"Refused":       {"daesim_requests_refused_total"},
		"QueueTimeouts": {"daesim_requests_queue_timeouts_total"},
	}
	srTyp := reflect.TypeOf(StatsResponse{})
	for i := 0; i < srTyp.NumField(); i++ {
		if _, ok := statsResponseMetrics[srTyp.Field(i).Name]; !ok {
			t.Errorf("StatsResponse.%s has no obsv metric: extend registerMetrics and this table", srTyp.Field(i).Name)
		}
	}

	// Every promised family must exist in a real registry: a server with
	// a store and an instrumented fleet client.
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Store: store, MaxConcurrent: 1})
	fc, err := NewFleetClient([]string{"http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	fc.Instrument(srv.Metrics())
	have := map[string]bool{}
	for _, s := range srv.Metrics().Snapshot() {
		have[s.Family] = true
	}
	var want []string
	for _, m := range cacheStatsMetrics {
		want = append(want, m.name)
	}
	for _, m := range storeStatsMetrics {
		want = append(want, m.name)
	}
	for _, m := range fleetMetricsSpecs {
		want = append(want, m.name)
	}
	for _, ms := range statsResponseMetrics {
		want = append(want, ms...)
	}
	want = append(want,
		"daesim_store_bytes",
		"daesim_admission_queue_depth", "daesim_admission_wait_seconds",
		"daesim_fleet_breaker_state", "daesim_fleet_request_seconds",
	)
	for _, name := range want {
		if !have[name] {
			t.Errorf("metric %s promised but absent from the registry snapshot", name)
		}
	}
}

// scrapeMetrics GETs /metrics and parses the exposition text into a
// map keyed by the full sample line prefix (name plus label block).
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndpointMidSweep scrapes /metrics around real traffic: a
// cold run populates the counters, a warm re-run moves the hit counters
// while every counter stays monotone, and a saturated admission
// semaphore shows up as a nonzero queue-depth gauge mid-flight.
func TestMetricsEndpointMidSweep(t *testing.T) {
	t.Parallel()
	store, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, client := newTestServer(t, Config{Store: store, MaxConcurrent: 1})
	base := client.Clients()[0].BaseURL

	pts := []sweep.Point{
		{Kind: machine.DM, P: machine.Params{Window: 8, MD: 10}},
		{Kind: machine.DM, P: machine.Params{Window: 16, MD: 10}},
	}
	if _, err := client.RunBatch(context.Background(), testWorkload, 1, "", pts); err != nil {
		t.Fatal(err)
	}
	cold := scrapeMetrics(t, base)
	if cold["daesim_runner_sims_total"] == 0 {
		t.Fatalf("cold scrape: daesim_runner_sims_total = 0, want > 0 (scrape: %v)", cold)
	}
	if cold["daesim_store_writes_total"] == 0 {
		t.Fatal("cold scrape: daesim_store_writes_total = 0, want > 0")
	}
	if cold["daesim_store_entries"] != float64(store.Len()) {
		t.Fatalf("daesim_store_entries = %v, want %d", cold["daesim_store_entries"], store.Len())
	}
	if got, want := cold["daesim_requests_admitted_total"], float64(srv.Stats().Requests); got != want {
		t.Fatalf("daesim_requests_admitted_total = %v, stats say %v", got, want)
	}

	if _, err := client.RunBatch(context.Background(), testWorkload, 1, "", pts); err != nil {
		t.Fatal(err)
	}
	warm := scrapeMetrics(t, base)
	if warm["daesim_runner_l1_hits_total"] <= cold["daesim_runner_l1_hits_total"] {
		t.Fatal("warm re-run did not move daesim_runner_l1_hits_total")
	}
	for k, v := range cold {
		if strings.Contains(k, "_total") && warm[k] < v {
			t.Errorf("counter %s went backwards: %v -> %v", k, v, warm[k])
		}
	}

	// Saturate the admission semaphore (capacity 1) directly, then park
	// a request in the queue and catch the depth gauge mid-flight — no
	// timing assumptions, the request cannot proceed until we release.
	srv.sem <- struct{}{}
	done := make(chan error, 1)
	go func() {
		_, err := client.Run(context.Background(), testWorkload, 1, "", pts[0])
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never registered in the depth gauge")
		}
		time.Sleep(time.Millisecond)
	}
	mid := scrapeMetrics(t, base)
	if mid["daesim_admission_queue_depth"] < 1 {
		t.Fatalf("daesim_admission_queue_depth = %v under a saturated semaphore, want >= 1", mid["daesim_admission_queue_depth"])
	}
	<-srv.sem
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	final := scrapeMetrics(t, base)
	if final["daesim_admission_queue_depth"] != 0 {
		t.Fatalf("daesim_admission_queue_depth = %v after the queue drained, want 0", final["daesim_admission_queue_depth"])
	}
	if final["daesim_admission_wait_seconds_count"] == 0 {
		t.Fatal("daesim_admission_wait_seconds_count = 0, want > 0 (admissions observe their wait)")
	}
}

// TestThrottleDrainRefusalAccounting pins the accounting bugfix: a
// drain-refused request counts as received and refused, never as served
// work (it used to inflate Requests, the number the CI smokes assert).
// TestStoreGaugesShareOneSnapshot: the entry and byte gauges of one
// scrape come from one Usage snapshot, and the next scrape takes a fresh
// one that sees another handle's appends.
func TestStoreGaugesShareOneSnapshot(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	store, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		store.Put(fmt.Sprintf("key-%d", i), &engine.Result{Cycles: int64(i)})
	}
	r := obsv.NewRegistry()
	InstrumentStore(r, store)
	scrape := func() (entries, bytes float64) {
		for _, s := range r.Snapshot() {
			switch s.Name {
			case "daesim_store_entries":
				entries = s.Value
			case "daesim_store_bytes":
				bytes = s.Value
			}
		}
		return entries, bytes
	}
	n, b := scrape()
	if n != 3 || b <= 0 || int64(b)%3 != 0 {
		t.Fatalf("first scrape: %v entries, %v bytes (want 3 equal-size entries)", n, b)
	}
	per := b / 3
	other, err := sweep.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	other.Put("key-3", &engine.Result{Cycles: 3})
	if n, b := scrape(); n != 4 || b != 4*per {
		t.Fatalf("second scrape: %v entries, %v bytes; want 4 and %v", n, b, 4*per)
	}
}

func TestThrottleDrainRefusalAccounting(t *testing.T) {
	t.Parallel()
	srv, client := newTestServer(t, Config{})
	if _, err := client.Run(context.Background(), testWorkload, 1, "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 10}}); err != nil {
		t.Fatal(err)
	}
	srv.BeginDrain()
	_, err := client.Run(context.Background(), testWorkload, 1, "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 16, MD: 10}})
	if err == nil {
		t.Fatal("draining daemon accepted work")
	}
	stats := srv.Stats()
	if stats.Requests != 1 || stats.Received != 2 || stats.Refused != 1 {
		t.Fatalf("after one served and one drain-refused request: requests=%d received=%d refused=%d, want 1/2/1",
			stats.Requests, stats.Received, stats.Refused)
	}
}

// TestThrottleQueueTimeoutAccounting pins the other half: a request
// whose deadline expires while waiting for an admission slot lands in
// QueueTimeouts, not Requests.
func TestThrottleQueueTimeoutAccounting(t *testing.T) {
	t.Parallel()
	srv, client := newTestServer(t, Config{MaxConcurrent: 1, RequestTimeout: 100 * time.Millisecond})
	srv.sem <- struct{}{} // saturate; nothing can be admitted
	defer func() { <-srv.sem }()
	if _, err := client.Run(context.Background(), testWorkload, 1, "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 10}}); err == nil {
		t.Fatal("request succeeded with the semaphore saturated")
	}
	// The timeout handler answers the client the instant the deadline
	// fires; the queued goroutine observes its dead context on its own
	// schedule, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for srv.queueTimeouts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stats := srv.Stats()
	if stats.QueueTimeouts != 1 || stats.Requests != 0 || stats.Received != 1 {
		t.Fatalf("after one queue timeout: queue_timeouts=%d requests=%d received=%d, want 1/0/1",
			stats.QueueTimeouts, stats.Requests, stats.Received)
	}
}

// TestMetricsDisabled proves -metrics=false withholds the endpoint.
func TestMetricsDisabled(t *testing.T) {
	t.Parallel()
	srv := NewServer(Config{DisableMetrics: true})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with DisableMetrics: status %d, want 404", resp.StatusCode)
	}
}

// TestDecodeBodyLimitMessage pins the oversized-body wording: a body
// past the 16 MiB cap must be refused by name, not as the truncating
// reader's bare "unexpected EOF".
func TestDecodeBodyLimitMessage(t *testing.T) {
	t.Parallel()
	big := `{"items":[{"workload":"` + strings.Repeat("a", maxBodyBytes) + `"}]}`
	req := httptest.NewRequest("POST", "/v1/batch/run", strings.NewReader(big))
	var v BatchRunRequest
	err := decode(req, &v)
	if err == nil {
		t.Fatal("oversized body decoded")
	}
	if want := "request body exceeds the 16 MiB limit"; err.Error() != want {
		t.Fatalf("oversized body error = %q, want %q", err, want)
	}
	// A small valid body with trailing garbage keeps its own message.
	req = httptest.NewRequest("POST", "/v1/batch/run", strings.NewReader(`{"items":[{"workload":"x"}]}garbage`))
	if err := decode(req, &v); err == nil || !strings.Contains(err.Error(), "unexpected data after the JSON body") {
		t.Fatalf("trailing-garbage error = %v, want the trailing-data message", err)
	}
}

// TestFleetRejectsDuplicateReplicaURLs is the regression test for the
// silent-failover-shrink bug: duplicate URLs collapse to identical
// vnode hashes, so they must be refused up front, by name.
func TestFleetRejectsDuplicateReplicaURLs(t *testing.T) {
	t.Parallel()
	_, err := NewFleetClient([]string{"http://10.0.0.1:8077", "http://10.0.0.2:8077", "http://10.0.0.1:8077/"})
	if err == nil {
		t.Fatal("duplicate replica URLs accepted")
	}
	if !strings.Contains(err.Error(), `"http://10.0.0.1:8077"`) {
		t.Fatalf("duplicate-URL error does not name the URL: %v", err)
	}
	if _, err := NewFleetClient([]string{"http://10.0.0.1:8077", "http://10.0.0.2:8077"}); err != nil {
		t.Fatalf("distinct replica URLs refused: %v", err)
	}
}

// TestUnavailableErrorWording pins the cleaned-up message: Unwrap
// carries sweep.ErrUnavailable, so Error must not also interpolate it —
// one "unavailable" per message, structural matching intact.
func TestUnavailableErrorWording(t *testing.T) {
	t.Parallel()
	cases := []*unavailableError{
		{n: 2},
		{n: 1, last: errors.New("connection refused")},
	}
	for _, e := range cases {
		if !errors.Is(e, sweep.ErrUnavailable) {
			t.Fatalf("%v does not match sweep.ErrUnavailable", e)
		}
		msg := fmt.Errorf("runner: %w", e).Error()
		if got := strings.Count(strings.ToLower(msg), "unavailable"); got != 1 {
			t.Errorf("%q says \"unavailable\" %d times, want exactly once", msg, got)
		}
	}
	if msg := cases[1].Error(); !strings.Contains(msg, "connection refused") {
		t.Errorf("%q lost the underlying cause", msg)
	}
}

// TestMetricsScrapeConcurrentWithTraffic races scrapes against live
// requests under -race: the registry must tolerate scrape-during-write.
func TestMetricsScrapeConcurrentWithTraffic(t *testing.T) {
	t.Parallel()
	_, client := newTestServer(t, Config{MaxConcurrent: 2})
	base := client.Clients()[0].BaseURL
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := client.Run(context.Background(), testWorkload, 1, "", sweep.Point{Kind: machine.DM, P: machine.Params{Window: 8 + i, MD: 10}})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	for i := 0; i < 5; i++ {
		scrapeMetrics(t, base)
	}
	wg.Wait()
}

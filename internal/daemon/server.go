package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/machine"
	"daesim/internal/metrics"
	"daesim/internal/obsv"
	"daesim/internal/partition"
	"daesim/internal/sweep"
)

// Config parameterizes a Server.
type Config struct {
	// Store is the shared persistent result cache (L2) behind every
	// runner the daemon builds; nil serves from memory only.
	Store *sweep.Store
	// Parallelism is the sweep.ForEach width of each runner's RunAll
	// fills and of a batch search's fan-out across its curves
	// (0 = GOMAXPROCS). Each curve probes one point at a time.
	Parallelism int
	// MaxConcurrent bounds simultaneously-executing simulation requests
	// (batch run and batch search); excess requests queue until a slot
	// frees or their timeout expires. 0 = unlimited.
	MaxConcurrent int
	// RequestTimeout bounds each simulation request end to end, queue
	// wait included; expired requests get 503. The underlying
	// simulations are not cancellable mid-run — they complete and warm
	// the cache for the retry. 0 = no timeout.
	RequestTimeout time.Duration
	// GCPolicy and GCInterval configure the background store GC ticker
	// (GCLoop); GC also remains available on demand via POST
	// /v1/cache/gc. A zero interval or unbounded policy disables the
	// ticker.
	GCPolicy   sweep.GCPolicy
	GCInterval time.Duration
	// Log receives request and GC log lines; nil discards them.
	Log *log.Logger
	// ReplicaID and Fleet, when set, advertise this daemon's identity and
	// its view of the fleet membership in /healthz, so fleet clients can
	// refuse a replica whose ring disagrees with theirs (sweepd -replica
	// and -fleet; see HealthResponse).
	ReplicaID string
	Fleet     []string
}

// Server is the long-lived sweep daemon: one single-flight memoizing
// runner per (workload, scale, policy), all sharing Config.Store, behind
// the HTTP API of Handler. Create with NewServer.
type Server struct {
	cfg   Config
	start time.Time
	sem   chan struct{} // nil when MaxConcurrent == 0

	mu       sync.Mutex
	contexts map[suiteKey]*experiments.Context //daelint:guardedby mu

	// Request accounting. received counts every arrival at a throttled
	// endpoint; requests counts only admitted work (it keeps the
	// long-standing "requests" name in StatsResponse — before this split
	// it was incremented ahead of the draining check and the semaphore,
	// so refusals and queue timeouts inflated the served-work stat the
	// CI smokes assert on). refused counts draining 503s and
	// queueTimeouts counts requests whose context expired while waiting
	// for an admission slot. queued is the live queue depth.
	received      atomic.Int64
	requests      atomic.Int64
	refused       atomic.Int64
	queueTimeouts atomic.Int64
	queued        atomic.Int64

	draining atomic.Bool

	metrics       *obsv.Registry
	admissionWait *obsv.Histogram
}

// suiteKey identifies one experiments.Context: runners are cached per
// workload inside a context, and contexts per (scale, policy) here.
type suiteKey struct {
	scale  int
	policy partition.Policy
}

// NewServer returns a Server for the config.
func NewServer(cfg Config) *Server {
	s := &Server{cfg: cfg, start: time.Now(), contexts: make(map[suiteKey]*experiments.Context)}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	s.metrics = obsv.NewRegistry()
	s.registerMetrics()
	return s
}

// Metrics returns the server's registry, for tests and for callers that
// want to co-register their own series (sweepd registers the fleet
// client's ladder on the same registry when proxying).
func (s *Server) Metrics() *obsv.Registry { return s.metrics }

// registerMetrics wires the server's accounting and its runners' cache
// counters into the scrape registry. Everything is func-backed: the
// atomic counters stay the single source of truth and /metrics reads
// them at scrape time, so StatsResponse and the exposition cannot
// drift (pinned by TestMetricsParity).
func (s *Server) registerMetrics() {
	r := s.metrics
	r.CounterFunc("daesim_requests_received_total", "simulation requests arriving at throttled endpoints, including refusals",
		func() float64 { return float64(s.received.Load()) })
	r.CounterFunc("daesim_requests_admitted_total", "simulation requests admitted past draining and the admission semaphore",
		func() float64 { return float64(s.requests.Load()) })
	r.CounterFunc("daesim_requests_refused_total", "simulation requests refused with 503 because the daemon is draining",
		func() float64 { return float64(s.refused.Load()) })
	r.CounterFunc("daesim_requests_queue_timeouts_total", "simulation requests whose context expired while queued for an admission slot",
		func() float64 { return float64(s.queueTimeouts.Load()) })
	r.GaugeFunc("daesim_admission_queue_depth", "requests currently waiting for an admission-semaphore slot",
		func() float64 { return float64(s.queued.Load()) })
	s.admissionWait = r.Histogram("daesim_admission_wait_seconds", "time spent waiting for an admission-semaphore slot", obsv.LatencyBuckets)
	r.GaugeFunc("daesim_uptime_seconds", "seconds since the daemon started",
		func() float64 { return time.Since(s.start).Seconds() })
	InstrumentCacheStats(r, s.runnerStats)
	if st := s.cfg.Store; st != nil {
		InstrumentStore(r, st)
	}
}

// statusWriter records the response status for the endpoint error
// counters; an unset status means an implicit 200 from the first Write.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a route with per-endpoint request, error and latency
// metrics. It sits outside throttle and the timeout handler so queue
// wait and timeout 503s are part of the observed latency and error
// counts — the client's view, not the handler's.
func (s *Server) instrument(endpoint string, h http.Handler) http.Handler {
	reqs := s.metrics.Counter("daesim_http_requests_total", "HTTP requests by endpoint", obsv.L("endpoint", endpoint))
	lat := s.metrics.Histogram("daesim_http_request_seconds", "HTTP request latency by endpoint", obsv.LatencyBuckets, obsv.L("endpoint", endpoint))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		reqs.Inc()
		lat.Observe(time.Since(start).Seconds())
		if sw.status >= 400 {
			s.metrics.Counter("daesim_http_errors_total", "HTTP error responses by endpoint and status code",
				obsv.L("endpoint", endpoint), obsv.L("code", fmt.Sprintf("%d", sw.status))).Inc()
		}
	})
}

// handleMetrics serves the Prometheus text exposition (GET /metrics).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// logf writes one log line when a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// contextFor returns (building on first use) the experiment context for
// a scale and policy. Contexts hold the per-workload runners; all share
// the daemon's store, so entries written at one scale never collide
// with another — the suite fingerprint in the key separates them.
func (s *Server) contextFor(scale int, pol partition.Policy) *experiments.Context {
	if scale <= 0 {
		scale = 1
	}
	k := suiteKey{scale: scale, policy: pol}
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx, ok := s.contexts[k]
	if !ok {
		ctx = experiments.NewContext()
		ctx.Scale = scale
		ctx.Policy = pol
		ctx.Parallelism = s.cfg.Parallelism
		ctx.Cache = s.cfg.Store
		s.contexts[k] = ctx
	}
	return ctx
}

// skewError is a Target version/fingerprint mismatch; handlers map it
// to HTTP 409 so clients can tell "wrong build" from "bad request".
type skewError struct{ msg string }

func (e *skewError) Error() string { return e.msg }

// runnerFor resolves a request target to its memoizing runner,
// enforcing the Target's skew guards: a request pinned to a different
// engine version or suite source key (trace, partition assignment and
// lower.Version) than this daemon's build is refused rather than
// answered with results the client could never have produced itself.
//
// A Target carries no partition policy, so the classic suite is tried
// first. A client sweeping under another policy sends its own suite's
// key; when the classic suite misses that key, the workload's suites
// under the other policies are tried, and the one that matches serves:
// equal keys mean equal lowering inputs, so equal results.
func (s *Server) runnerFor(t Target) (*sweep.Runner, error) {
	if t.EngineVersion != "" && t.EngineVersion != engine.Version {
		return nil, &skewError{fmt.Sprintf("daemon: engine version skew: daemon runs %s, client expects %s (rebuild or restart sweepd)", engine.Version, t.EngineVersion)}
	}
	if t.Scale > MaxScale {
		return nil, fmt.Errorf("daemon: scale %d exceeds the limit of %d", t.Scale, MaxScale)
	}
	r, err := s.contextFor(t.Scale, partition.Classic).Runner(t.Workload)
	if err != nil || t.Fingerprint == "" || t.Fingerprint == r.Suite.Fingerprint() {
		return r, err
	}
	for _, pol := range partition.Policies() {
		if pol == partition.Classic {
			continue
		}
		alt, err := s.contextFor(t.Scale, pol).Runner(t.Workload)
		if err != nil {
			return nil, err
		}
		if alt.Suite.Fingerprint() == t.Fingerprint {
			return alt, nil
		}
	}
	return nil, &skewError{fmt.Sprintf("daemon: workload content skew for %s (scale %d): client key %s matches this daemon's suite under no partition policy (classic has key %s) — the builds trace, partition or lower (lower.Version) the workload differently; restart sweepd from the client's build", t.Workload, t.Scale, t.Fingerprint, r.Suite.Fingerprint())}
}

// targetStatus maps a runnerFor error to its HTTP status.
func targetStatus(err error) int {
	var skew *skewError
	if errors.As(err, &skew) {
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

// Handler returns the daemon's HTTP handler. The simulation endpoints
// (batch run and batch search) pass through the concurrency limiter
// and the per-request timeout; health and cache management stay
// unthrottled so liveness probes and operators are never starved by a
// sweep burst.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("GET /v1/cache/stats", s.instrument("cache_stats", http.HandlerFunc(s.handleCacheStats)))
	mux.Handle("POST /v1/cache/gc", s.instrument("cache_gc", http.HandlerFunc(s.handleCacheGC)))
	mux.Handle("POST /v1/batch/run", s.instrument("batch_run", s.throttle(s.handleBatchRun)))
	mux.Handle("POST /v1/batch/search", s.instrument("batch_search", s.throttle(s.handleBatchSearch)))
	// Deliberately outside instrument: a scraper polling /metrics every
	// few seconds would drown the request counters it reads.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// BeginDrain marks the daemon as draining: /healthz advertises
// "draining" and simulation endpoints refuse new work with 503 plus
// the DrainingHeader marker, so fleet clients reroute immediately and
// without charging a failure — distinct from dead. In-flight requests
// are unaffected; call this just before http.Server.Shutdown (with a
// short grace window so keep-alive clients observe the state rather
// than a closed listener — sweepd -drain-grace).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// throttle wraps a simulation handler with the admission semaphore and
// the request timeout. s.requests counts only work admitted past both
// gates — drain refusals and queue timeouts land in their own counters
// instead of inflating the served-work stat (they used to: the old code
// incremented before the draining check and the semaphore).
func (s *Server) throttle(h http.HandlerFunc) http.Handler {
	limited := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.received.Add(1)
		if s.draining.Load() {
			s.refused.Add(1)
			w.Header().Set(DrainingHeader, DrainingValue)
			writeError(w, http.StatusServiceUnavailable, errors.New("daemon: draining: not accepting new work"))
			return
		}
		if s.sem != nil {
			s.queued.Add(1)
			waitStart := time.Now()
			select {
			case s.sem <- struct{}{}:
				s.queued.Add(-1)
				s.admissionWait.Observe(time.Since(waitStart).Seconds())
				defer func() { <-s.sem }()
			case <-r.Context().Done():
				s.queued.Add(-1)
				s.queueTimeouts.Add(1)
				// The timeout handler (or the client) already gave up;
				// it owns the response.
				return
			}
		}
		s.requests.Add(1)
		h(w, r)
	})
	if s.cfg.RequestTimeout <= 0 {
		return limited
	}
	return http.TimeoutHandler(limited, s.cfg.RequestTimeout, `{"error":"request timed out"}`)
}

// writeJSON writes v as the 200 response body. An encode failure at
// this point can only be a broken connection; there is no response left
// to amend.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// maxBodyBytes caps a request body; a body at or over the cap is
// refused by name rather than surfacing as a bare "unexpected EOF"
// from the truncating reader.
const maxBodyBytes = 16 << 20

// decode parses a JSON request body, rejecting unknown fields so a
// misspelled parameter fails loudly instead of silently simulating the
// default configuration, and rejecting trailing bytes after the
// document — a concatenated or truncated-then-resumed body is a
// malformed request, not a prefix to silently honor (the fuzz oracle
// pins invalid JSON to 400).
func decode(r *http.Request, v any) error {
	// One byte of headroom over the cap: the reader draining means the
	// body hit the limit, which is what the error should say.
	lr := &io.LimitedReader{R: r.Body, N: maxBodyBytes + 1}
	overLimit := func() bool { return lr.N <= 0 }
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if overLimit() {
			return fmt.Errorf("request body exceeds the %d MiB limit", maxBodyBytes>>20)
		}
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if overLimit() {
			return fmt.Errorf("request body exceeds the %d MiB limit", maxBodyBytes>>20)
		}
		return fmt.Errorf("unexpected data after the JSON body")
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = DrainingValue
	}
	writeJSON(w, HealthResponse{
		Status: status, EngineVersion: engine.Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		ReplicaID:     s.cfg.ReplicaID, Fleet: s.cfg.Fleet,
	})
}

// checkBatchSize refuses empty and oversized batches with 400.
func checkBatchSize(w http.ResponseWriter, path string, n int) bool {
	switch {
	case n == 0:
		writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: %s batch has no items", path))
		return false
	case n > MaxBatchItems:
		writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: %s batch of %d items exceeds the %d-item limit; split it", path, n, MaxBatchItems))
		return false
	}
	return true
}

func (s *Server) handleBatchRun(w http.ResponseWriter, r *http.Request) {
	var req BatchRunRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: bad batch run request: %w", err))
		return
	}
	if !checkBatchSize(w, "run", len(req.Items)) {
		return
	}
	// Validate every item before simulating any: the batch is
	// all-or-nothing, so a malformed tail must not waste the head's work.
	runners := make([]*sweep.Runner, len(req.Items))
	for i, item := range req.Items {
		runner, err := s.runnerFor(item.Target)
		if err != nil {
			writeError(w, targetStatus(err), fmt.Errorf("daemon: batch item %d: %w", i, err))
			return
		}
		if item.Kind == noKind {
			writeError(w, http.StatusBadRequest, fmt.Errorf(`daemon: batch item %d names no machine kind (want "DM" or "SWSM")`, i))
			return
		}
		runners[i] = runner
	}
	// Execute per runner through RunAll, so each group fills on the
	// runner's worker pool like a local sweep.
	start := time.Now()
	results := make([]*engine.Result, len(req.Items))
	var order []*sweep.Runner
	groups := make(map[*sweep.Runner][]int)
	for i, rn := range runners {
		if _, ok := groups[rn]; !ok {
			order = append(order, rn)
		}
		groups[rn] = append(groups[rn], i)
	}
	for _, rn := range order {
		idx := groups[rn]
		gp := make([]sweep.Point, len(idx))
		for j, i := range idx {
			gp[j] = req.Items[i].Point
		}
		res, err := rn.RunAll(gp)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		for j, i := range idx {
			results[i] = res[j]
		}
	}
	s.logf("batch run: %d items across %d suites in %s", len(req.Items), len(order), time.Since(start).Round(time.Millisecond))
	writeJSON(w, BatchRunResponse{Results: results})
}

func (s *Server) handleBatchSearch(w http.ResponseWriter, r *http.Request) {
	var req BatchSearchRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: bad batch search request: %w", err))
		return
	}
	if !checkBatchSize(w, "search", len(req.Items)) {
		return
	}
	// Items sharing a target and every parameter but the DM window are
	// one curve, searched as a unit (metrics.RatioCurve): its answers
	// depend on the curve, so a curve is never split across searches.
	type curveID struct {
		t Target
		p machine.Params
	}
	var curves [][]int // item indices, curves in first-seen order
	var runners []*sweep.Runner
	index := make(map[curveID]int)
	for i, item := range req.Items {
		runner, err := s.runnerFor(item.Target)
		if err != nil {
			writeError(w, targetStatus(err), fmt.Errorf("daemon: batch item %d: %w", i, err))
			return
		}
		k := curveID{item.Target, item.Params}
		k.p.Window = 0
		ci, ok := index[k]
		if !ok {
			ci = len(curves)
			index[k] = ci
			curves = append(curves, nil)
			runners = append(runners, runner)
		}
		curves[ci] = append(curves[ci], i)
	}
	// Curves fan out across the pool, each probing one point at a
	// time; all probes coalesce in the runners' caches.
	start := time.Now()
	results := make([]SearchResponse, len(req.Items))
	if err := sweep.ForEach(s.cfg.Parallelism, len(curves), func(ci int) error {
		idx := curves[ci]
		windows := make([]int, len(idx))
		for j, i := range idx {
			windows[j] = req.Items[i].Params.Window
		}
		answers, err := metrics.RatioCurve(runners[ci], req.Items[idx[0]].Params, windows)
		if err != nil {
			return err
		}
		for j, i := range idx {
			results[i] = SearchResponse{Ratio: answers[j].Ratio, OK: answers[j].OK}
		}
		return nil
	}); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.logf("batch search: %d items in %d curves in %s", len(req.Items), len(curves), time.Since(start).Round(time.Millisecond))
	writeJSON(w, BatchSearchResponse{Results: results})
}

// runnerStats aggregates cache traffic across every runner the daemon
// has built (Stats and the scrape registry's runner counters read it).
func (s *Server) runnerStats() sweep.CacheStats {
	var total sweep.CacheStats
	s.mu.Lock()
	ctxs := make([]*experiments.Context, 0, len(s.contexts))
	for _, ctx := range s.contexts {
		ctxs = append(ctxs, ctx)
	}
	s.mu.Unlock()
	for _, ctx := range ctxs {
		total.Add(ctx.CacheStats())
	}
	return total
}

// Stats aggregates cache traffic across every runner the daemon has
// built (it also backs GET /v1/cache/stats).
func (s *Server) Stats() StatsResponse {
	total := s.runnerStats()
	resp := StatsResponse{
		Runner:        total,
		HitRate:       total.HitRate(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Received:      s.received.Load(),
		Refused:       s.refused.Load(),
		QueueTimeouts: s.queueTimeouts.Load(),
	}
	if s.cfg.Store != nil {
		resp.Store = s.cfg.Store.Stats()
		resp.StoreEntries = s.cfg.Store.Len()
	}
	return resp
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Server) handleCacheGC(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: no persistent store attached (start sweepd with -cache)"))
		return
	}
	var req GCRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: bad GC request: %w", err))
		return
	}
	if req.MaxEntries < 0 || req.MaxBytes < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: negative GC bound (max_entries=%d, max_bytes=%d); omit a bound to leave it unlimited", req.MaxEntries, req.MaxBytes))
		return
	}
	pol := sweep.GCPolicy{MaxEntries: req.MaxEntries, MaxBytes: req.MaxBytes}
	if req.MaxAge != "" {
		d, err := time.ParseDuration(req.MaxAge)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: bad max_age %q", req.MaxAge))
			return
		}
		pol.MaxAge = d
	}
	res, err := s.cfg.Store.GC(pol)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.logf("cache gc (%s): %s", pol, res)
	writeJSON(w, res)
}

// GCLoop trims the store on Config.GCInterval until ctx is cancelled.
// It returns immediately when the ticker is disabled (no store, no
// interval, or an unbounded policy).
func (s *Server) GCLoop(ctx context.Context) {
	if s.cfg.Store == nil || s.cfg.GCInterval <= 0 || !s.cfg.GCPolicy.Bounded() {
		return
	}
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			res, err := s.cfg.Store.GC(s.cfg.GCPolicy)
			if err != nil {
				s.logf("background gc failed: %v", err)
				continue
			}
			if res.Evicted > 0 {
				s.logf("background gc (%s): %s", s.cfg.GCPolicy, res)
			}
		}
	}
}

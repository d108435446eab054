// Command repro regenerates every table and figure of the paper into a
// results directory.
//
// Usage:
//
//	repro [-out results] [-scale 1] [-par 0] [-cache dir] [-cache-clear] [-cache-stats file]
//	      [-cache-gc policy] [-remote url1,url2,...] [-degrade=true]
//	      [-chaos spec] [-chaos-stats file] [-chaos-trace file]
//	      [-metrics-dump file] [-cpuprofile file]
//	      [-exp all|table1|fig4|fig5|fig6|fig7|fig8|fig9|cutoffs|bigwindow|esw|ablations|expansion|policies|retire|cache|complexity]
//	repro -exp fig7 -workload spec:depth=6,ilp=2,mem=0.5,addr=chase,hazard=0.4
//	repro -list
//
// -workload re-points one of the figure experiments (fig4-fig9) at any
// registered workload instead of the paper's: a catalog kernel or a
// generated "spec:..." workload (internal/workgen), so the whole
// generator space sweeps through the same figure machinery, local or
// -remote (generated workloads travel by name; the daemon regenerates
// them and the suite's source key proves both sides agree). -list
// prints the workload registry in its canonical enumeration order and
// exits.
//
// With -cache, simulation results are read from and written to a
// persistent on-disk store keyed by engine version, the suite's source
// key (lowering version, trace and partition) and parameters, so a re-run (or an overlapping experiment) skips every
// point it has seen before; -cache-clear empties the store first,
// -cache-gc trims it after the run to the given bounds (e.g.
// "max-entries=5000,max-bytes=256mb,max-age=168h", LRU by access time;
// DESIGN.md §10), and -cache-stats writes the run's hit/miss counters as
// JSON. With -remote, cacheable simulations that miss the local layers
// are executed by running sweepd daemons instead of locally: one base
// URL (e.g. http://127.0.0.1:8077) attaches a single daemon, a
// comma-separated list shards points across the fleet by consistent
// hashing with failover (DESIGN.md §11). Remote sweeps and search probe
// waves are batched into one request per replica round trip, and the
// ratio searches of Figures 7-9 run server-side. Replica failures
// climb the ladder of DESIGN.md §13 — retry with backoff, circuit
// breakers, rerouting — and -degrade (on by default) arms the last
// resort: points whose every replica is down are simulated locally, so
// the run completes byte-identically even with the whole fleet dead
// (-degrade=false fails loudly instead). SIGINT/SIGTERM cancel the
// remote calls in flight and fail the run cleanly.
//
// -chaos injects deterministic faults for testing that ladder: the spec
// (e.g. "seed=7,timeout@r1:rate=0.2,5xx:rate=0.05") seeds a schedule of
// refusals, timeouts, slow or corrupted replies against the daemon
// transports (scopes r0,r1,... in -remote list order) and the local
// store's record I/O (scope "store"). The same spec replays the same
// faults. -chaos-stats writes the observed fault/retry/degrade counters
// as JSON; -chaos-trace writes the per-request fault decisions (stable
// across runs at -par 1). The summary always prints to stderr, keeping
// stdout byte-comparable across runs.
//
// -metrics-dump writes a one-shot Prometheus text exposition of the
// run's client-side metrics — the runner cache counters, the store
// counters and gauges, and (with -remote) the fleet client's failure
// ladder and per-replica latency histograms — to a file after the run:
// the same exposition a sweepd serves live on GET /metrics (DESIGN.md
// §15), for runs that have no daemon to scrape. -cpuprofile writes a
// runtime/pprof CPU profile of the run, so an end-to-end time can be
// attributed without the perfbench driver; no output depends on it.
//
// TestUsageEnumeratesExperiments keeps the usage line above, the -exp
// flag help and the dispatch table in sync.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"daesim/internal/daemon"
	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/faultinject"
	"daesim/internal/machine"
	"daesim/internal/obsv"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// experimentOrder lists every dispatchable -exp value except "all", in
// usage order. The dispatch table below must cover exactly these.
var experimentOrder = []string{
	"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"cutoffs", "bigwindow", "esw", "ablations",
	"expansion", "policies", "retire", "cache", "complexity",
}

// renderTo adapts a result-producing experiment to the dispatch table.
func renderTo[T interface{ Render(io.Writer) error }](get func() (T, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		res, err := get()
		if err != nil {
			return err
		}
		return res.Render(w)
	}
}

// figureExps maps the figure experiments to their number and the
// paper's workload; -workload overrides the workload, never the number.
var figureExps = map[string]struct {
	num      int
	workload string
}{
	"fig4": {4, "FLO52Q"}, "fig5": {5, "MDG"}, "fig6": {6, "TRACK"},
	"fig7": {7, "FLO52Q"}, "fig8": {8, "MDG"}, "fig9": {9, "TRACK"},
}

// dispatch maps -exp values to their drivers (each bound to ctx).
// workload, when non-empty, re-points the figure experiments at that
// workload (run rejects the combination for non-figure experiments).
func dispatch(ctx *experiments.Context, workload string) map[string]func(io.Writer) error {
	m := map[string]func(io.Writer) error{
		"table1":     renderTo(ctx.Table1),
		"cutoffs":    renderTo(ctx.Cutoffs),
		"bigwindow":  renderTo(ctx.BigWindow),
		"esw":        renderTo(ctx.ESWStudy),
		"expansion":  renderTo(ctx.CodeExpansion),
		"policies":   renderTo(ctx.PolicyStudy),
		"retire":     renderTo(ctx.RetireStudy),
		"cache":      renderTo(ctx.CacheStudy),
		"complexity": renderTo(ctx.ComplexityStudy),
		"ablations": func(w io.Writer) error {
			as, err := ctx.Ablations()
			if err != nil {
				return err
			}
			for _, a := range as {
				if err := a.Render(w); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		},
	}
	for exp, fig := range figureExps { //daelint:nondeterministic-ok populates the dispatch map; per-entry closures are order-free
		num, name := fig.num, fig.workload
		if workload != "" {
			name = workload
		}
		if num <= 6 {
			m[exp] = renderTo(func() (*experiments.FigureResult, error) { return ctx.FigureNamed(num, name) })
		} else {
			m[exp] = renderTo(func() (*experiments.RatioResult, error) { return ctx.RatioFigureNamed(num, name) })
		}
	}
	return m
}

// expFlagHelp enumerates the -exp values for the flag description.
func expFlagHelp() string {
	return "experiment to run: all, " + strings.Join(experimentOrder, ", ")
}

func main() {
	out := flag.String("out", "results", "output directory")
	scale := flag.Int("scale", 1, "workload scale factor")
	exp := flag.String("exp", "all", expFlagHelp())
	workload := flag.String("workload", "", "with -exp fig4..fig9, sweep this workload instead of the paper's (catalog name or spec:depth=...; see internal/workgen)")
	list := flag.Bool("list", false, "list the workload registry in canonical order and exit")
	par := flag.Int("par", 0, "worker-pool width for sweeps and fanned-out searches (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache", "", "persistent result-cache directory (empty = cache disabled)")
	cacheClear := flag.Bool("cache-clear", false, "empty the persistent cache before running")
	cacheStats := flag.String("cache-stats", "", "write cache hit/miss statistics as JSON to this file")
	cacheGC := flag.String("cache-gc", "", "trim the persistent cache after the run, e.g. max-entries=5000,max-bytes=256mb,max-age=168h")
	remote := flag.String("remote", "", "comma-separated sweepd base URLs: run cacheable simulations on a daemon (or a consistent-hash fleet) instead of locally")
	degrade := flag.Bool("degrade", true, "with -remote, fall back to local simulation for points whose every replica is unavailable (false: fail loudly)")
	chaos := flag.String("chaos", "", "deterministic fault-injection schedule, e.g. seed=7,timeout@r1:rate=0.2,5xx:rate=0.05 (see internal/faultinject)")
	chaosStats := flag.String("chaos-stats", "", "write fault-injection and failure-handling counters as JSON to this file")
	chaosTrace := flag.String("chaos-trace", "", "write the per-request fault decision trace as JSON to this file (stable across runs at -par 1)")
	metricsDump := flag.String("metrics-dump", "", "write a one-shot Prometheus text exposition of the run's client-side metrics to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	flag.Parse()

	if *list {
		listWorkloads(os.Stdout)
		return
	}
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}

	// SIGINT/SIGTERM cancel remote calls in flight: the run fails
	// cleanly instead of hanging on a retry loop (cancellation is never
	// degraded to local simulation).
	rctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	ctx := experiments.NewContext()
	ctx.Scale = *scale
	ctx.Parallelism = *par

	if *cacheDir != "" {
		store, err := sweep.OpenStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		if *cacheClear {
			if err := store.Clear(); err != nil {
				fatal(err)
			}
		}
		ctx.Cache = store
	} else if *cacheClear {
		fatal(fmt.Errorf("-cache-clear needs -cache"))
	}
	gcPolicy := sweep.GCPolicy{}
	if *cacheGC != "" {
		if ctx.Cache == nil {
			fatal(fmt.Errorf("-cache-gc needs -cache"))
		}
		pol, err := sweep.ParseGCPolicy(*cacheGC)
		if err != nil {
			fatal(err)
		}
		gcPolicy = pol
	}
	var injector *faultinject.Injector
	if *chaos != "" {
		sched, err := faultinject.ParseSchedule(*chaos)
		if err != nil {
			fatal(fmt.Errorf("-chaos: %w", err))
		}
		injector = faultinject.NewInjector(sched)
		if ctx.Cache != nil {
			ctx.Cache.Faults = &faultinject.StoreFaults{Injector: injector}
		}
	} else if *chaosTrace != "" {
		fatal(fmt.Errorf("-chaos-trace needs -chaos"))
	}
	// The metrics registry exists for the whole run when -metrics-dump is
	// set, so the fleet client's per-replica histograms observe traffic
	// as it happens; the cache/store bridges read their snapshots at dump
	// time either way.
	var reg *obsv.Registry
	if *metricsDump != "" {
		reg = obsv.NewRegistry()
	}
	var fleet *daemon.FleetClient
	if *remote != "" {
		f, err := attachRemote(rctx, ctx, *remote, injector, reg)
		if err != nil {
			fatal(fmt.Errorf("-remote: %w", err))
		}
		fleet = f
		ctx.Degrade = *degrade
	}

	if err := run(ctx, *exp, *out, *workload); err != nil {
		fatal(err)
	}
	if err := reportCache(ctx, *cacheStats); err != nil {
		fatal(err)
	}
	if err := reportChaos(ctx, fleet, injector, *chaos, *chaosStats, *chaosTrace); err != nil {
		fatal(err)
	}
	if reg != nil {
		if err := writeMetricsDump(reg, ctx, *metricsDump); err != nil {
			fatal(err)
		}
	}
	if *cacheGC != "" {
		if err := runCacheGC(ctx.Cache, gcPolicy, os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// attachRemote wires the context's RemoteBatch and RemoteSearch hooks
// (a single point rides RemoteBatch as a one-item batch) to a
// consistent-hash fleet over the comma-separated URLs (a
// single URL is a one-replica fleet — same failure ladder, trivial
// ring). The health handshake runs up front, over the clean
// transports, so a dead or skewed daemon fails the run before any
// simulation starts; only then are the transports wrapped with the
// chaos injector (scope "r<i>" in list order) — faults exercise the
// steady-state path, not the startup gate. rctx carries the process
// signal context into every remote call.
func attachRemote(rctx context.Context, ctx *experiments.Context, spec string, injector *faultinject.Injector, reg *obsv.Registry) (*daemon.FleetClient, error) {
	urls := strings.Split(spec, ",")
	for i := range urls {
		urls[i] = strings.TrimSpace(urls[i])
	}
	fleet, err := daemon.NewFleetClient(urls)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		fleet.Instrument(reg)
	}
	if err := fleet.Health(rctx); err != nil {
		return nil, err
	}
	if injector != nil {
		for i, c := range fleet.Clients() {
			c.HTTP = &http.Client{
				Timeout:   15 * time.Minute,
				Transport: &faultinject.Transport{Injector: injector, Scope: fmt.Sprintf("r%d", i)},
			}
		}
	}
	ctx.RemoteBatch = func(workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error) {
		return fleet.RunBatch(rctx, workload, scale, fingerprint, pts)
	}
	ctx.RemoteSearch = func(workload string, scale int, fingerprint string, params []machine.Params) ([]experiments.RatioAnswer, error) {
		return fleet.RatioBatch(rctx, workload, scale, fingerprint, params)
	}
	return fleet, nil
}

// runCacheGC trims the store post-run and prints the pinned one-line
// summary (TestCacheGCSummary) to w.
func runCacheGC(store *sweep.Store, pol sweep.GCPolicy, w io.Writer) error {
	res, err := store.GC(pol)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "repro: cache-gc (%s): %s\n", pol, res)
	return nil
}

// startCPUProfile starts a CPU profile written to path; stop flushes
// and closes it.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "repro: %v\n", err)
	os.Exit(1)
}

// listWorkloads prints the registry, one name per line, in the
// canonical enumeration order — the same order the workloads.Lookup
// error and the daemon's /v1/batch/run validation errors print
// (TestListOrderParity pins the agreement).
func listWorkloads(w io.Writer) {
	for _, name := range workloads.Names() {
		fmt.Fprintln(w, name)
	}
}

func run(ctx *experiments.Context, exp, out, workload string) error {
	if workload != "" {
		if _, isFigure := figureExps[exp]; !isFigure {
			return fmt.Errorf("-workload applies to the figure experiments only (-exp fig4..fig9), not %q", exp)
		}
		// Fail on an unknown or malformed workload before any simulation
		// starts, with the registry's own enumerating error.
		if _, err := workloads.Lookup(workload); err != nil {
			return err
		}
	}
	if exp == "all" {
		_, err := ctx.WriteAll(out, os.Stdout)
		return err
	}
	fn, ok := dispatch(ctx, workload)[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want all, %s)", exp, strings.Join(experimentOrder, ", "))
	}
	return fn(os.Stdout)
}

// cacheReport is the -cache-stats JSON document.
type cacheReport struct {
	// Runner-level traffic: L1 (in-memory) hits, persistent-store hits,
	// simulations executed, and the composite hit rate.
	Runner sweep.CacheStats `json:"runner"`
	// HitRate is Runner's fraction of points served from cache.
	HitRate float64 `json:"hit_rate"`
	// Store-level counters (zero when -cache is off).
	Store sweep.StoreStats `json:"store"`
}

// reportCache prints the cache summary to stderr (stdout must stay
// byte-comparable between cold and warm runs) and writes the JSON stats
// file when asked.
func reportCache(ctx *experiments.Context, statsPath string) error {
	stats := ctx.CacheStats()
	report := cacheReport{Runner: stats, HitRate: stats.HitRate(), Store: ctx.StoreStats()}
	fmt.Fprintf(os.Stderr, "repro: cache: %d sims, %d L1 hits, %d store hits, %d remote, %d remote searches (hit rate %.1f%%), %d degraded; store: %d writes, %d corrupt\n",
		stats.Sims, stats.L1Hits, stats.StoreHits, stats.RemoteHits, stats.RemoteSearches, 100*report.HitRate, stats.Degraded,
		report.Store.Writes, report.Store.Corrupt)
	if statsPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(statsPath, append(data, '\n'), 0o644)
}

// chaosReport is the -chaos-stats JSON document: what the schedule
// injected and how the client stack absorbed it.
type chaosReport struct {
	// Spec is the -chaos schedule verbatim (empty when only real
	// failures were in play).
	Spec string `json:"spec"`
	// Faults counts the injector's decisions by kind.
	Faults faultinject.Counts `json:"faults"`
	// Fleet counts the failure-handling the FleetClient performed:
	// retries, breaker opens, draining reroutes, exhausted points
	// (Hedges stays 0).
	Fleet daemon.FleetMetrics `json:"fleet"`
	// Degraded counts points answered by last-resort local simulation.
	Degraded int64 `json:"degraded"`
	// Quarantined counts store keys retired after repeated corruption.
	Quarantined int64 `json:"quarantined"`
}

// writeMetricsDump bridges the run's cache and store counters into reg
// and writes the full exposition — the -metrics-dump file, the offline
// twin of a sweepd's GET /metrics.
func writeMetricsDump(reg *obsv.Registry, ctx *experiments.Context, path string) error {
	daemon.InstrumentCacheStats(reg, ctx.CacheStats)
	if ctx.Cache != nil {
		daemon.InstrumentStore(reg, ctx.Cache)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// reportChaos writes the -chaos-stats and -chaos-trace documents.
func reportChaos(ctx *experiments.Context, fleet *daemon.FleetClient, injector *faultinject.Injector, spec, statsPath, tracePath string) error {
	if statsPath != "" {
		report := chaosReport{Spec: spec}
		if injector != nil {
			report.Faults = injector.Counts()
		}
		if fleet != nil {
			report.Fleet = fleet.Metrics()
		}
		report.Degraded = ctx.CacheStats().Degraded
		report.Quarantined = ctx.StoreStats().CorruptQuarantined
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(statsPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if tracePath != "" && injector != nil {
		data, err := json.MarshalIndent(injector.Trace(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(tracePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

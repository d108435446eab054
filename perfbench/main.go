// Command perfbench is daesim's performance ledger. It runs one named
// workload in a closed loop of passes from one process for a fixed
// time, checks every pass's artifacts and counters, and prints one JSON
// result line: the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a traced run. README.md describes the workloads and
// metrics; run.sh builds this command from the checkout and runs it.
//
// Usage:
//
//	perfbench -workload paper-cold|paper-warm|fleet-warm -seed N -seconds S -trace 0|1 [-root DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload. The run loop calls setUp once,
// then prepare and finish outside the timed window around each timed
// pass.
type workload interface {
	// setUp does all set-up before the first pass.
	setUp() error
	// setupTimes are the set-up durations in seconds, one per repetition.
	setupTimes() []float64
	// prepare builds the pass's fresh experiments.Context.
	prepare(p *passRun) error
	pass(p *passRun) error
	// finish returns the pass's counters and releases its state.
	finish(p *passRun) (counts, error)
	// check applies the workload's own count invariants to one pass.
	check(c counts) error
	// reference is the digest set every pass must produce; nil means the
	// first pass's.
	reference() map[string]string
	// layers adds the per-layer probe metrics of a traced run.
	layers(m map[string]metric, scratch string) error
	close()
}

func main() {
	name := flag.String("workload", "", "workload: paper-cold, paper-warm or fleet-warm")
	seed := flag.Int64("seed", 1, "input seed (the fleet workload's generated workloads)")
	seconds := flag.Float64("seconds", 10, "measured seconds: passes run until their total reaches this (and at least 4 passes ran)")
	traceMode := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	root := flag.String("root", ".", "repository root; scratch files go under ROOT/.bench_build")
	flag.Parse()

	if *traceMode != 0 && *traceMode != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	scratch, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "work-")
	if err != nil {
		fatal(err)
	}
	res, err := run(*name, *seed, *seconds, *traceMode == 1, scratch)
	os.RemoveAll(scratch)
	if err != nil {
		fatal(err)
	}
	fmt.Println(hostFacts())
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func newWorkload(name string, seed int64, scratch string, tr *tracer) (workload, error) {
	switch name {
	case "paper-cold":
		return &paperCold{dir: scratch}, nil
	case "paper-warm":
		return &paperWarm{dir: scratch}, nil
	case "fleet-warm":
		return &fleetWarm{specs: seedSpecs(seed), tr: tr}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-cold, paper-warm or fleet-warm)", name)
}

// minPasses is the fewest passes a run measures, however long they
// take: a median needs several samples, and a traced run needs both
// traced and untraced passes. It only matters for paper-cold, whose
// passes take several seconds.
const minPasses = 4

// passStats is what the run loop keeps of one pass.
type passStats struct {
	traced bool
	wall   time.Duration
	alloc  uint64
	rss    float64 // peak resident set during the pass, MiB
	lat    []time.Duration
	counts counts
	// ratioProbes and ratioAnswers are the pass's search probes and the
	// equivalent-window answers they produced.
	ratioProbes  int64
	ratioAnswers int
}

func run(name string, seed int64, seconds float64, traced bool, scratch string) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	w, err := newWorkload(name, seed, scratch, tr)
	if err != nil {
		return nil, err
	}
	defer w.close()
	// The host clock samples before and after set-up, then between passes.
	var hc hostClock
	if err := hc.sample(); err != nil {
		return nil, err
	}
	if err := w.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := hc.sample(); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
		res.Correct = false
		res.Failed++
	}
	want := w.reference()
	var passes []passStats
	var measured, sinceCalibration time.Duration
	for n := 0; measured.Seconds() < seconds || n < minPasses; n++ {
		// A traced run alternates untraced and traced passes, so both see
		// the same drift; trace_overhead is their median ratio.
		var ptr *tracer
		if traced && n%2 == 1 {
			ptr = tr
		}
		p := newPassRun(ptr, nil)
		if err := w.prepare(p); err != nil {
			return nil, fmt.Errorf("pass %d: %w", n, err)
		}
		runtime.GC() // every pass starts from the same heap
		resetPeakRSS()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		endPass := ptr.beginPass()
		err := w.pass(p)
		endPass()
		wall := time.Since(t0)
		rss := peakRSSMiB()
		runtime.ReadMemStats(&ms1)
		measured += wall
		sinceCalibration += wall
		res.Attempted++
		fmt.Fprintf(os.Stderr, "perfbench: pass %d (traced %t): %.3f s\n", n, ptr != nil, wall.Seconds())
		c, ferr := w.finish(p)
		if ferr != nil {
			return nil, fmt.Errorf("pass %d: %w", n, ferr)
		}
		if sinceCalibration >= calibrationEvery {
			if err := hc.sample(); err != nil {
				return nil, err
			}
			sinceCalibration = 0
		}
		res.Attempted += p.calls
		res.Failed += p.callErrs
		switch {
		case err != nil:
			fail("pass %d: %v", n, err)
			continue
		case want == nil:
			want = p.digests
		}
		if d := diffDigests(want, p.digests); d != "" {
			fail("pass %d: artifacts differ from the reference: %s", n, d)
		}
		if err := w.check(c); err != nil {
			fail("pass %d: %v", n, err)
		}
		if len(passes) > 0 && !c.sameAs(passes[0].counts) {
			fail("pass %d: counts drifted between passes of the same code:\n  first %+v\n  now   %+v", n, passes[0].counts, c)
		}
		passes = append(passes, passStats{traced: ptr != nil, wall: wall, alloc: ms1.TotalAlloc - ms0.TotalAlloc, rss: rss, lat: p.lat, counts: c,
			ratioProbes: p.ratioProbes, ratioAnswers: p.ratioAnswers})
	}
	if len(passes) == 0 {
		return res, nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, counts per pass %+v\n", name, seed, len(passes), passes[0].counts)
	host := hc.index()
	fmt.Fprintf(os.Stderr, "perfbench: host index %.4f (%v)\n", host, &hc)

	if !traced {
		addEndToEnd(res, w.setupTimes(), passes, host)
		return res, nil
	}
	if err := addLayers(res, w, tr, passes, scratch, host); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(filepath.Dir(scratch), fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", tracePath)
	return res, nil
}

// addEndToEnd fills the end-to-end metrics from an untraced run. Times
// are divided by the host index: seconds at the reference host speed.
func addEndToEnd(res *result, setups []float64, passes []passStats, host float64) {
	var walls, allocs, rss []float64
	for _, ps := range passes {
		walls = append(walls, ps.wall.Seconds())
		rss = append(rss, ps.rss)
		allocs = append(allocs, float64(ps.alloc)/(1<<20))
	}
	fmt.Fprintf(os.Stderr, "perfbench: host seconds: setup %.4f, pass %.4f\n", median(setups), median(walls))
	m := res.Metrics
	m["setup_s"] = metric{median(setups) / host, "s"}
	m["wall_s"] = metric{median(walls) / host, "s"}
	m["rss_mb"] = metric{median(rss), "MiB"}
	m["alloc_mb"] = metric{median(allocs), "MiB"}
	m["success_frac"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
}

// addLayers fills the per-layer metrics of a traced run: span self
// times and counters from the traced passes, then the workload's probes.
// Like the end-to-end times, host times and rates are reported at the
// reference host speed.
func addLayers(res *result, w workload, tr *tracer, passes []passStats, scratch string, host float64) error {
	m := res.Metrics
	var tracedWall, plainWall, lat []float64
	for _, ps := range passes {
		lat = append(lat, millis(ps.lat)...)
		if ps.traced {
			tracedWall = append(tracedWall, ps.wall.Seconds())
		} else {
			plainWall = append(plainWall, ps.wall.Seconds())
		}
	}
	m["bench.trace_overhead"] = metric{median(tracedWall) / median(plainWall), "ratio"}

	// Span self times, median over the traced passes.
	layers := tr.layerBreakdown()
	perPass := map[string][]float64{}
	for _, pl := range layers {
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		for _, k := range []string{"table1", "figs", "ratio_figs", "studies", "render"} {
			perPass["experiments."+k+"_ms"] = append(perPass["experiments."+k+"_ms"], ms(pl.self["experiments."+k]))
		}
		perPass["experiments.other_ms"] = append(perPass["experiments.other_ms"], ms(pl.other))
		perPass["daemon.client_ms"] = append(perPass["daemon.client_ms"], ms(pl.client))
		perPass["daemon.server_ms"] = append(perPass["daemon.server_ms"], ms(pl.server))
		if n := pl.count["experiments.ratio_figs"]; n > 0 {
			perPass["metrics.ratio_ms"] = append(perPass["metrics.ratio_ms"], ms(pl.dur["experiments.ratio_figs"])/float64(n))
		}
	}
	for k, v := range perPass {
		m[k] = metric{median(v), "ms"}
	}
	reconcile(layers)

	c := passes[0].counts
	local := c.local
	lookups := local.L1Hits + local.StoreHits + local.RemoteHits + local.Sims + local.Degraded
	m["engine.sims"] = metric{float64(local.Sims + local.Uncacheable + local.Degraded), "count"}
	m["sweep.l1_hit_rate"] = metric{ratio(local.L1Hits, lookups), "ratio"}
	m["sweep.store_hits"] = metric{float64(c.storeHits), "count"}
	m["sweep.store_writes"] = metric{float64(c.storeWrites), "count"}
	m["sweep.store_mb"] = metric{c.storeMiB, "MiB"}
	m["metrics.probes_per_answer"] = metric{ratio(passes[0].ratioProbes, int64(passes[0].ratioAnswers)), "ratio"}
	m["daemon.requests"] = metric{float64(c.requests), "count"}
	m["daemon.wire_kb"] = metric{float64(c.wireBytes) / 1024, "KiB"}
	m["daemon.retries"] = metric{float64(c.ladder.Retries), "count"}
	m["daemon.server_hit_rate"] = metric{ratio(c.server.L1Hits+c.server.StoreHits, c.server.L1Hits+c.server.StoreHits+c.server.Sims), "ratio"}
	var maxRep int64
	for _, r := range c.perReplica {
		maxRep = max(maxRep, r)
	}
	m["daemon.replica_max_share"] = metric{ratio(maxRep, c.requests), "ratio"}
	for _, q := range []int{50, 90, 99} {
		v := 0.0
		if len(lat) > 0 {
			v = quantile(lat, float64(q)/100)
		}
		m[fmt.Sprintf("daemon.req_p%d_ms", q)] = metric{v, "ms"}
	}
	if err := w.layers(m, scratch); err != nil {
		return err
	}
	for k, v := range m {
		switch v.Unit {
		case "ms", "us":
			v.Value /= host
		case "Mops/s":
			v.Value *= host
		}
		m[k] = v
	}
	m["bench.host_index"] = metric{host, "ratio"}
	return nil
}

// reconcile prints each traced pass's layer self times and checks that
// they add up to the pass wall time.
func reconcile(layers []passLayers) {
	for i, pl := range layers {
		sum := pl.other + pl.client + pl.server
		var parts []string
		names := make([]string, 0, len(pl.self))
		for k := range pl.self {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			sum += pl.self[k]
			parts = append(parts, fmt.Sprintf("%s=%.1f", strings.TrimPrefix(k, "experiments."), float64(pl.self[k])/1e6))
		}
		fmt.Fprintf(os.Stderr, "perfbench: traced pass %d: wall %.1f ms = %s client=%.1f server=%.1f other=%.1f (residual %.3f ms)\n",
			i, float64(pl.wall)/1e6, strings.Join(parts, " "), float64(pl.client)/1e6, float64(pl.server)/1e6,
			float64(pl.other)/1e6, float64(pl.wall-sum)/1e6)
		if pl.other*10 > pl.wall {
			fmt.Fprintf(os.Stderr, "perfbench: WARNING: traced pass %d: %.0f%% of the pass is outside every experiments span\n", i, 100*float64(pl.other)/float64(pl.wall))
		}
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics (NaN for no
// samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) count from the
// current resident set, so peakRSSMiB measures one pass. Where the
// kernel refuses, VmHWM stays the process-lifetime peak.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// hostFacts identifies the host, so results from different hosts are
// never compared.
func hostFacts() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: go=%s os=%s/%s nproc=%d gomaxprocs=%d cpu=%q",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu)
}

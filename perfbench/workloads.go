package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"daesim/internal/daemon"
	"daesim/internal/experiments"
	"daesim/internal/partition"
	"daesim/internal/sweep"
	"daesim/internal/workgen"
	"daesim/internal/workloads"
)

// setupReps is how many times the warm workloads set up per run;
// setup_s is the median.
const setupReps = 3

// The corpus's simulation counts when this benchmark was written: the
// cacheable points a cold pass simulates or reads back from its own
// store, and the points no cache may hold (custom memory models). A
// change to them is reported, not failed: removing simulations is a
// legitimate optimisation.
const (
	recordedCacheable   = 2833
	recordedUncacheable = 15
)

// counts are one pass's counters. Every pass of a run must produce the
// same counts: a count that drifts between passes of the same code is a
// benchmark bug, not noise.
type counts struct {
	local       sweep.CacheStats // the pass Context's runners
	storeHits   int64
	storeWrites int64
	storeMiB    float64
	requests    int64 // fleet simulation requests
	perReplica  []int64
	wireBytes   int64
	server      sweep.CacheStats // the fleet replicas' runners
	ladder      daemon.FleetMetrics
}

func (c counts) sameAs(o counts) bool { return reflect.DeepEqual(c, o) }

// localProbes counts the search probes of a local Context.
func localProbes(ctx *experiments.Context) func() int64 {
	return func() int64 {
		st := ctx.CacheStats()
		return st.Sims + st.L1Hits
	}
}

func storeCounts(store *sweep.Store, before sweep.StoreStats) counts {
	st := store.Stats()
	_, bytes := store.Usage()
	return counts{storeHits: st.Hits - before.Hits, storeWrites: st.Writes - before.Writes, storeMiB: float64(bytes) / (1 << 20)}
}

// probeLayers runs the build probe on the named workloads under the
// given partition policies, then the engine and store probes.
func probeLayers(m map[string]metric, names []string, policies []partition.Policy, scratch string) error {
	bp, err := probeBuilds(names, policies)
	if err != nil {
		return err
	}
	m["workloads.build_ms"] = metric{bp.buildMs, "ms"}
	m["workloads.builds"] = metric{float64(bp.builds), "count"}
	m["lower.suite_ms"] = metric{bp.lowerMs, "ms"}
	m["lower.alloc_mb"] = metric{bp.lowerAllocMB, "MiB"}
	m["lower.suites"] = metric{float64(bp.suites), "count"}
	m["machine.fingerprint_ms"] = metric{bp.fpMs, "ms"}
	dm, swsm, keyed, err := engineProbe()
	if err != nil {
		return err
	}
	m["engine.dm_mops"] = metric{dm, "Mops/s"}
	m["engine.swsm_mops"] = metric{swsm, "Mops/s"}
	get, put, err := storeProbe(filepath.Join(scratch, "probe-store"), keyed)
	if err != nil {
		return err
	}
	m["sweep.store_get_us"] = metric{get, "us"}
	m["sweep.store_put_us"] = metric{put, "us"}
	return nil
}

func catalogNames() []string {
	var names []string
	for _, s := range workloads.Catalog() {
		names = append(names, s.Name)
	}
	return names
}

// paperCold regenerates the corpus on a fresh Context over a fresh,
// empty store every pass. Its set-up is per pass: creating the empty
// store and deleting it afterwards, both outside the timed window.
type paperCold struct {
	dir    string
	n      int
	ctx    *experiments.Context
	setups []float64
}

func (w *paperCold) setUp() error                 { return nil }
func (w *paperCold) setupTimes() []float64        { return w.setups }
func (w *paperCold) reference() map[string]string { return nil }
func (w *paperCold) close()                       {}

func (w *paperCold) prepare(p *passRun) error {
	w.n++
	t0 := time.Now()
	store, err := sweep.OpenStore(filepath.Join(w.dir, fmt.Sprintf("cold-%d", w.n)))
	if err != nil {
		return err
	}
	w.setups = append(w.setups, time.Since(t0).Seconds())
	w.ctx = experiments.NewContext()
	w.ctx.Cache = store
	p.probes = localProbes(w.ctx)
	return nil
}

func (w *paperCold) pass(p *passRun) error { return corpusPass(w.ctx, p) }

func (w *paperCold) finish(p *passRun) (counts, error) {
	c := storeCounts(w.ctx.Cache, sweep.StoreStats{})
	c.local = w.ctx.CacheStats()
	t0 := time.Now()
	err := os.RemoveAll(w.ctx.Cache.Dir())
	w.setups[len(w.setups)-1] += time.Since(t0).Seconds()
	return c, err
}

func (w *paperCold) check(c counts) error {
	if c.local.RemoteHits != 0 || c.local.Degraded != 0 {
		return fmt.Errorf("a local pass reported remote traffic: %+v", c.local)
	}
	if c.storeWrites != c.local.Sims {
		return fmt.Errorf("%d simulations but %d store writes: every simulated point must be installed once", c.local.Sims, c.storeWrites)
	}
	if cacheable := c.local.Sims + c.local.StoreHits; cacheable != recordedCacheable || c.local.Uncacheable != recordedUncacheable {
		fmt.Fprintf(os.Stderr, "perfbench: note: a cold pass ran %d cacheable points and %d uncacheable (recorded: %d and %d)\n",
			cacheable, c.local.Uncacheable, recordedCacheable, recordedUncacheable)
	}
	return nil
}

func (w *paperCold) layers(m map[string]metric, scratch string) error {
	return probeLayers(m, catalogNames(), partition.Policies(), scratch)
}

// paperWarm regenerates the corpus on a fresh Context every pass, over
// a store that set-up filled with experiments.Context.WriteAll (the
// code path of repro -exp all). Every pass must reproduce the fill's
// artifacts byte for byte from store reads alone.
type paperWarm struct {
	dir       string
	store     *sweep.Store
	ref       map[string]string
	cacheable int64 // cacheable points of the fill
	setups    []float64
	ctx       *experiments.Context
	before    sweep.StoreStats
}

func (w *paperWarm) setUp() error {
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(w.dir, fmt.Sprintf("fill-%d", i))
		runtime.GC()
		t0 := time.Now()
		store, err := sweep.OpenStore(filepath.Join(dir, "store"))
		if err != nil {
			return err
		}
		ctx := experiments.NewContext()
		ctx.Cache = store
		if _, err := ctx.WriteAll(filepath.Join(dir, "out"), nil); err != nil {
			return fmt.Errorf("filling the store: %w", err)
		}
		w.setups = append(w.setups, time.Since(t0).Seconds())
		ref, err := hashDir(filepath.Join(dir, "out"))
		if err != nil {
			return err
		}
		if w.ref != nil {
			if d := diffDigests(w.ref, ref); d != "" {
				return fmt.Errorf("fill %d: artifacts differ from the first fill's: %s", i, d)
			}
			if err := os.RemoveAll(filepath.Dir(w.store.Dir())); err != nil {
				return err
			}
		}
		st := ctx.CacheStats()
		w.ref, w.store, w.cacheable = ref, store, st.Sims+st.StoreHits
	}
	return nil
}

func (w *paperWarm) setupTimes() []float64        { return w.setups }
func (w *paperWarm) reference() map[string]string { return w.ref }
func (w *paperWarm) close()                       {}

func (w *paperWarm) prepare(p *passRun) error {
	w.ctx = experiments.NewContext()
	w.ctx.Cache = w.store
	w.before = w.store.Stats()
	p.probes = localProbes(w.ctx)
	return nil
}

func (w *paperWarm) pass(p *passRun) error { return corpusPass(w.ctx, p) }

func (w *paperWarm) finish(p *passRun) (counts, error) {
	c := storeCounts(w.store, w.before)
	c.local = w.ctx.CacheStats()
	return c, nil
}

func (w *paperWarm) check(c counts) error {
	if c.local.Sims != 0 || c.storeWrites != 0 {
		return fmt.Errorf("a warm pass simulated %d cacheable points and wrote %d store entries (want 0)", c.local.Sims, c.storeWrites)
	}
	if c.local.StoreHits != w.cacheable {
		return fmt.Errorf("a warm pass read %d points from the store; the fill had %d cacheable points", c.local.StoreHits, w.cacheable)
	}
	return nil
}

func (w *paperWarm) layers(m map[string]metric, scratch string) error {
	return probeLayers(m, catalogNames(), partition.Policies(), scratch)
}

// seedSpecs draws the fleet workload's two generated workloads from the
// seed. Only the structural seed varies: trace length and shape knobs
// are fixed, so every seed costs about the same while the hazard
// placement (and so every figure value) differs.
func seedSpecs(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	a := workgen.Spec{Depth: 6, ILP: 4, Mem: 0.5, Addr: workgen.Gather, Hazard: 0.1, Iters: 128, Seed: uint64(rng.Int63n(1 << 30))}
	b := workgen.Spec{Depth: 4, ILP: 8, Mem: 1, Addr: workgen.Chase, Hazard: 0.2, Iters: 64, Seed: uint64(rng.Int63n(1 << 30))}
	return []string{a.Name(), b.Name()}
}

// fleetWarm computes Figures 4-9, plus Figures 4 and 7 of the seed's
// generated workloads, through a warm 3-replica fleet. Each pass uses a
// fresh Context whose hooks are bound to the one long-lived client.
type fleetWarm struct {
	specs  []string
	tr     *tracer
	fl     *fleet
	ref    map[string]string
	setups []float64
	ctx    *experiments.Context
	before fleetTotals
}

// setUp computes the figures once locally without a store (the
// reference; the benchmark's own check, so not part of setup_s), then
// setupReps times starts a fleet and warms its caches with one pass
// through it, which must reproduce the reference. The last fleet serves
// the passes.
func (w *fleetWarm) setUp() error {
	local := newPassRun(nil, func() int64 { return 0 })
	if err := fleetPass(experiments.NewContext(), local, w.specs); err != nil {
		return fmt.Errorf("local reference: %w", err)
	}
	w.ref = local.digests
	for i := 0; i < setupReps; i++ {
		if w.fl != nil {
			w.fl.close()
			w.fl = nil
		}
		runtime.GC()
		t0 := time.Now()
		fl, err := startFleet(3, w.tr)
		if err != nil {
			return fmt.Errorf("starting the fleet: %w", err)
		}
		w.fl = fl
		warm := newPassRun(nil, fl.searchProbes)
		ctx := experiments.NewContext()
		fl.attach(ctx, warm)
		if err := fleetPass(ctx, warm, w.specs); err != nil {
			return fmt.Errorf("warming the fleet: %w", err)
		}
		w.setups = append(w.setups, time.Since(t0).Seconds())
		if d := diffDigests(w.ref, warm.digests); d != "" {
			return fmt.Errorf("the fleet's figures differ from the local ones: %s", d)
		}
	}
	return nil
}

func (w *fleetWarm) setupTimes() []float64        { return w.setups }
func (w *fleetWarm) reference() map[string]string { return w.ref }

func (w *fleetWarm) close() {
	if w.fl != nil {
		w.fl.close()
	}
}

func (w *fleetWarm) prepare(p *passRun) error {
	w.ctx = experiments.NewContext()
	w.fl.attach(w.ctx, p)
	p.probes = w.fl.searchProbes
	w.before = w.fl.totals()
	return nil
}

func (w *fleetWarm) pass(p *passRun) error { return fleetPass(w.ctx, p, w.specs) }

func (w *fleetWarm) finish(p *passRun) (counts, error) {
	after := w.fl.totals()
	c := counts{
		local:     w.ctx.CacheStats(),
		requests:  after.requests - w.before.requests,
		wireBytes: after.wireBytes - w.before.wireBytes,
		server:    subStats(after.runner, w.before.runner),
		ladder: daemon.FleetMetrics{
			Retries:          after.ladder.Retries - w.before.ladder.Retries,
			BreakerOpens:     after.ladder.BreakerOpens - w.before.ladder.BreakerOpens,
			Hedges:           after.ladder.Hedges - w.before.ladder.Hedges,
			DrainingReroutes: after.ladder.DrainingReroutes - w.before.ladder.DrainingReroutes,
			Unavailable:      after.ladder.Unavailable - w.before.ladder.Unavailable,
		},
	}
	for i := range after.perRep {
		c.perReplica = append(c.perReplica, after.perRep[i]-w.before.perRep[i])
	}
	return c, nil
}

func (w *fleetWarm) check(c counts) error {
	if n := c.local.Sims + c.local.Degraded + c.local.Uncacheable; n != 0 {
		return fmt.Errorf("a fleet pass simulated %d points locally (want 0)", n)
	}
	if c.ladder != (daemon.FleetMetrics{}) {
		return fmt.Errorf("the fleet client's failure ladder engaged: %+v", c.ladder)
	}
	if c.server.Sims != 0 {
		return fmt.Errorf("the warm fleet simulated %d points (want 0)", c.server.Sims)
	}
	return nil
}

func (w *fleetWarm) layers(m map[string]metric, scratch string) error {
	names := append([]string{"FLO52Q", "MDG", "TRACK"}, w.specs...)
	return probeLayers(m, names, []partition.Policy{partition.Classic}, scratch)
}

func subStats(a, b sweep.CacheStats) sweep.CacheStats {
	return sweep.CacheStats{
		L1Hits: a.L1Hits - b.L1Hits, StoreHits: a.StoreHits - b.StoreHits, RemoteHits: a.RemoteHits - b.RemoteHits,
		RemoteSearches: a.RemoteSearches - b.RemoteSearches, Sims: a.Sims - b.Sims,
		Degraded: a.Degraded - b.Degraded, Uncacheable: a.Uncacheable - b.Uncacheable,
	}
}

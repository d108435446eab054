package daemon

import (
	"reflect"
	"sync"

	"daesim/internal/obsv"
	"daesim/internal/sweep"
)

// This file is the bridge from the repo's existing stats snapshots
// (sweep.CacheStats, sweep.StoreStats, FleetMetrics) into the obsv
// scrape registry. Every bridge is a func-backed metric reading the
// snapshot at scrape time — the atomic counters stay the single source
// of truth, so /metrics and the JSON stats endpoints cannot drift.
//
// The spec tables below are keyed by snapshot FIELD NAME and read via
// reflection. That makes parity enforceable: TestMetricsParity reflects
// over each struct and fails when a field has no table entry, so a new
// counter cannot silently skip the exposition, and a misspelled field
// name here panics on first scrape rather than exporting zeros.

// metricSpec names one exposed metric for one snapshot field.
type metricSpec struct{ name, help string }

// cacheStatsMetrics maps every sweep.CacheStats field to its metric.
var cacheStatsMetrics = map[string]metricSpec{
	"L1Hits":         {"daesim_runner_l1_hits_total", "points served from the in-memory single-flight map"},
	"StoreHits":      {"daesim_runner_store_hits_total", "points loaded from the persistent store"},
	"RemoteHits":     {"daesim_runner_remote_hits_total", "points served by a remote daemon"},
	"RemoteSearches": {"daesim_runner_remote_searches_total", "whole searches answered server-side by a remote daemon"},
	"Sims":           {"daesim_runner_sims_total", "simulations executed"},
	"Degraded":       {"daesim_runner_degraded_total", "points simulated locally because every remote owner was unavailable"},
	"Pruned":         {"daesim_runner_pruned_total", "search probes a certified lower bound proved miss their target, not simulated"},
	"Bounds":         {"daesim_runner_bounds_total", "certified lower bounds computed"},
	"Uncacheable":    {"daesim_runner_uncacheable_total", "always 0: every point is cacheable (kept while sweep.CacheStats has the field)"},
}

// storeStatsMetrics maps every sweep.StoreStats field to its metric.
var storeStatsMetrics = map[string]metricSpec{
	"Hits":               {"daesim_store_hits_total", "store Get hits"},
	"Misses":             {"daesim_store_misses_total", "store Get misses"},
	"Corrupt":            {"daesim_store_corrupt_total", "damaged store records found by reads and scans"},
	"Writes":             {"daesim_store_writes_total", "store entries installed"},
	"WriteErrors":        {"daesim_store_write_errors_total", "failed store installs (cache degraded to pass-through)"},
	"GCEvictions":        {"daesim_store_gc_evictions_total", "store entries removed by GC passes"},
	"CorruptQuarantined": {"daesim_store_corrupt_quarantined_total", "keys retired after failing their checksum twice"},
	"BoundHits":          {"daesim_store_bound_hits_total", "certified lower-bound records read back"},
	"BoundWrites":        {"daesim_store_bound_writes_total", "certified lower-bound records installed"},
}

// fleetMetricsSpecs maps every FleetMetrics field to its metric.
var fleetMetricsSpecs = map[string]metricSpec{
	"Retries":          {"daesim_fleet_retries_total", "point-attempts rerouted after a retryable failure"},
	"BreakerOpens":     {"daesim_fleet_breaker_opens_total", "circuit-breaker closed/half-open to open transitions"},
	"Hedges":           {"daesim_fleet_hedges_total", "always 0: the fleet client no longer hedges (kept for schema stability)"},
	"DrainingReroutes": {"daesim_fleet_draining_reroutes_total", "point-attempts rerouted off a cleanly draining replica"},
	"Unavailable":      {"daesim_fleet_unavailable_total", "points that exhausted every candidate replica"},
}

// fieldCounter registers one func-backed counter reading the named
// int64 field of snap's result by reflection.
func fieldCounter(r *obsv.Registry, spec metricSpec, field string, snap func() reflect.Value) {
	r.CounterFunc(spec.name, spec.help, func() float64 {
		return float64(snap().FieldByName(field).Int())
	})
}

// InstrumentCacheStats exposes a runner cache-stats snapshot (and its
// derived hit rate) on r. The daemon passes its cross-context
// aggregate; repro passes its local runner's.
func InstrumentCacheStats(r *obsv.Registry, stats func() sweep.CacheStats) {
	for field, spec := range cacheStatsMetrics {
		fieldCounter(r, spec, field, func() reflect.Value { return reflect.ValueOf(stats()) })
	}
	r.GaugeFunc("daesim_runner_hit_rate", "fraction of points served without simulating",
		func() float64 { return stats().HitRate() })
}

// InstrumentStore exposes a persistent store's counters plus its
// entry-count and byte-size gauges. Both gauges of a scrape read one
// Store.Usage snapshot (an index top-up on the scrape path), so they
// always describe the same store state.
func InstrumentStore(r *obsv.Registry, st *sweep.Store) {
	for field, spec := range storeStatsMetrics {
		fieldCounter(r, spec, field, func() reflect.Value { return reflect.ValueOf(st.Stats()) })
	}
	u := &storeUsage{st: st, seen: [2]bool{true, true}}
	r.GaugeFunc("daesim_store_entries", "entries in the persistent store",
		func() float64 { return u.value(0) })
	r.GaugeFunc("daesim_store_bytes", "bytes in the persistent store",
		func() float64 { return u.value(1) })
}

// storeUsage serves the store gauges (0: entries, 1: bytes) from one
// Usage snapshot per scrape. A scrape reads each gauge once, so a gauge
// asking again for a value it already read starts the next scrape: it
// takes a fresh snapshot.
type storeUsage struct {
	st   *sweep.Store
	mu   sync.Mutex
	vals [2]float64 //daelint:guardedby mu
	seen [2]bool    //daelint:guardedby mu
}

func (u *storeUsage) value(i int) float64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.seen[i] {
		n, b := u.st.Usage()
		u.vals, u.seen = [2]float64{float64(n), float64(b)}, [2]bool{}
	}
	u.seen[i] = true
	return u.vals[i]
}

// InstrumentFleetMetrics exposes a fleet client's failure-ladder
// counters on r (FleetClient.Instrument adds the per-replica series).
func InstrumentFleetMetrics(r *obsv.Registry, stats func() FleetMetrics) {
	for field, spec := range fleetMetricsSpecs {
		fieldCounter(r, spec, field, func() reflect.Value { return reflect.ValueOf(stats()) })
	}
}

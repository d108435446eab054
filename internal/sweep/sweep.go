// Package sweep runs families of simulations in parallel with
// memoization. Experiment drivers describe points (machine, window, MD);
// the runner executes them across CPUs and caches results so overlapping
// sweeps (e.g. a speedup figure and a crossover search over the same
// windows) do not re-simulate.
package sweep

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"daesim/internal/engine"
	"daesim/internal/machine"
)

// ErrUnavailable marks a remote error meaning "no replica could serve
// this work at all" — every candidate was tried (or the whole fleet is
// down), as opposed to a refusal that would repeat anywhere (bad
// request, version skew). A RemoteBatch hook wraps it (errors.Is) to
// tell a Degrade-enabled Runner that falling back to local simulation
// is both safe and the only way forward; any other remote error still
// fails the point loudly.
var ErrUnavailable = errors.New("sweep: remote unavailable")

// ErrBoundViolated marks a simulated point whose Cycles came out below
// the certified lower bound the runner held for it (Runner.Probe): the
// bound or the engine is wrong, and every search it pruned is suspect.
// The run fails loudly instead of going on silently wrong.
var ErrBoundViolated = errors.New("sweep: lower bound above simulated cycles")

// Point identifies one simulation: a machine kind plus parameters. It
// is also the wire form of a sweepd run item's point.
type Point struct {
	Kind machine.Kind   `json:"kind"`
	P    machine.Params `json:"params"`
}

// entry is one in-flight or settled L1 slot. The first caller to reach a
// point owns its entry and simulates (or loads from the Store); everyone
// else blocks on ready — single-flight, so concurrent shards sweeping
// overlapping points never duplicate a simulation.
type entry struct {
	ready chan struct{} // closed once res/err are settled
	res   *engine.Result
	err   error
}

// CacheStats counts where a Runner's results came from.
type CacheStats struct {
	// L1Hits are points served from the in-memory map, including callers
	// that waited on another goroutine's in-flight simulation.
	L1Hits int64
	// StoreHits are points loaded from the persistent Store.
	StoreHits int64
	// RemoteHits are points served by a remote daemon (Runner.RemoteBatch).
	RemoteHits int64
	// RemoteSearches are whole equivalent-window searches answered
	// server-side by a remote daemon (experiments.Context.RemoteSearch)
	// — each stands for a full probe sequence that never touched the
	// local layers, so they are reported alongside RemoteHits but are
	// not points and do not enter HitRate.
	RemoteSearches int64
	// Sims are simulations actually executed.
	Sims int64
	// Degraded are points simulated locally as a last resort
	// because every remote owner was unavailable (Runner.Degrade) —
	// results are byte-identical to the remote answer by determinism,
	// so a degraded run completes correctly, just without the shared
	// cache. Counted separately from Sims so "warm remote runs simulate
	// nothing" assertions stay meaningful.
	Degraded int64
	// Pruned are search probes (Runner.Probe) answered by a certified
	// lower bound above their target instead of a simulation: a proved
	// miss. They are not points served and do not enter HitRate; the
	// bound came from the L1, the store (StoreStats.BoundHits) or was
	// computed (Bounds).
	Pruned int64
	// Bounds are certified lower bounds computed (engine.Sim.LowerBound;
	// the first lowers the program): one per point a probe found in no
	// layer.
	Bounds int64
	// Uncacheable is always 0: every point is cacheable since memory
	// models became values (machine.Params.Mem). perfbench still reads
	// the field; the benchmark's next revision (ROADMAP item 1) deletes
	// it.
	Uncacheable int64
}

// Add accumulates other into s.
func (s *CacheStats) Add(other CacheStats) {
	s.L1Hits += other.L1Hits
	s.StoreHits += other.StoreHits
	s.RemoteHits += other.RemoteHits
	s.RemoteSearches += other.RemoteSearches
	s.Sims += other.Sims
	s.Degraded += other.Degraded
	s.Pruned += other.Pruned
	s.Bounds += other.Bounds
}

// HitRate returns the fraction of points served without
// simulating locally (from the in-memory map, the persistent store, or
// a remote daemon).
func (s CacheStats) HitRate() float64 {
	total := s.L1Hits + s.StoreHits + s.RemoteHits + s.Sims + s.Degraded
	if total == 0 {
		return 0
	}
	return float64(s.L1Hits+s.StoreHits+s.RemoteHits) / float64(total)
}

// Runner executes points against one suite.
type Runner struct {
	Suite *machine.Suite
	// Parallelism bounds the ForEach pool one RunAll call fills its
	// store reads and local misses on (0: GOMAXPROCS; 1: inline, in
	// order). Equivalent-window searches probe one point at a time and
	// take their parallelism from callers fanning points out.
	Parallelism int
	// Store, when non-nil, is the persistent L2 consulted between the
	// in-memory map and the simulator. Set it before the first Run.
	Store *Store
	// RemoteBatch, when non-nil, executes the points that miss
	// the local layers in one call per Run or RunAll — typically a
	// daemon fleet client (internal/daemon.FleetClient.RunBatch bound to
	// a workload), so a figure sweep becomes one HTTP round trip per
	// replica, and a single point, such as a search probe no bound
	// certifies (Probe), a one-item batch.
	// Remote results are installed into the local Store (when attached)
	// like any fill. A remote error fails the call: a misconfigured or
	// unreachable daemon should surface, not silently degrade to local
	// simulation (the one explicit exception is Degrade +
	// ErrUnavailable). Set it before the first Run.
	RemoteBatch func([]Point) ([]*engine.Result, error)
	// Degrade is the last rung of the failure ladder: when set, a
	// RemoteBatch failure that wraps ErrUnavailable (every owner of the
	// point is down) falls back to local simulation — counted as
	// Degraded, installed into the Store like any fill, byte-identical
	// by determinism — instead of failing the sweep. Any other remote
	// error still surfaces loudly, so misconfiguration (bad URL, skew,
	// bad request) never silently degrades.
	Degrade bool

	mu     sync.Mutex
	cache  map[Point]*entry //daelint:guardedby mu
	bounds map[Point]*bound //daelint:guardedby mu
	prefix string           //daelint:guardedby mu -- engine version + suite fingerprint, built lazily

	l1Hits, storeHits, remoteHits, sims, degraded, pruned, lbs atomic.Int64
}

// bound is one point's L1 lower-bound slot, single-flight like entry:
// the first probe to reach a point with no exact result reads or
// computes its bound; later probes wait on ready. lb stays 0 while the
// slot fills, and when the point has no bound or its exact result is in
// the L1.
type bound struct {
	ready chan struct{}
	lb    atomic.Int64
	err   error
}

// NewRunner returns a Runner for the suite.
func NewRunner(s *machine.Suite) *Runner {
	return &Runner{Suite: s, cache: make(map[Point]*entry), bounds: make(map[Point]*bound)}
}

// Run executes one point. It is RunAll of one point, run inline on the
// caller's goroutine: the point passes the same L1, Store and remote
// layers a sweep does, and with RemoteBatch set it travels as a one-item
// batch. Returned Results are private copies: the canonical cached
// Result never escapes, so callers may mutate what they get back.
func (r *Runner) Run(pt Point) (*engine.Result, error) {
	out, err := r.RunAll([]Point{pt})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Probe runs pt for a caller that only asks whether its Cycles meet
// target: it returns pt's exact Result, or a nil Result and a certified
// lower bound above target, a miss proved without simulating. It looks,
// in order, for the L1's exact result, a bound the L1 holds, the store's
// exact record and its bound record; failing all four it computes the
// bound (machine.Suite.LowerBound). A bound above target is the answer,
// installed in the store when it was computed; otherwise Probe is Run,
// and the simulation must not come out below the bound (fillBatch). The
// returned Result is a private copy, as Run's.
//
// A RemoteBatch hook changes nothing but where the simulation runs: the
// client computes bounds too, so a certified miss sends nothing, and a
// remote reply below the held bound fails like a local simulation.
//
//daelint:ctx-root like RunAll: cancellation rides the RemoteBatch hook's captured context; local simulation and bound computation are not cancellable mid-run
func (r *Runner) Probe(pt Point, target int64) (*engine.Result, int64, error) {
	if pt.Kind != machine.SWSM {
		res, err := r.Run(pt)
		return res, 0, err
	}
	r.mu.Lock()
	_, exact := r.cache[pt]
	b := r.bounds[pt]
	own := !exact && b == nil
	if own {
		b = &bound{ready: make(chan struct{})}
		r.bounds[pt] = b
	}
	r.mu.Unlock()
	if !exact {
		if own {
			r.fillBound(pt, b, target)
		}
		<-b.ready
		if b.err != nil {
			return nil, 0, b.err
		}
		if lb := b.lb.Load(); lb > target {
			r.pruned.Add(1)
			return nil, lb, nil
		}
	}
	res, err := r.Run(pt)
	return res, 0, err
}

// fillBound settles a claimed bound slot: from the store's exact record
// (adopted into the L1, and the slot left at 0), the store's bound
// record, or the bound computed, which the store keeps when it proves a
// miss of target. A failed computation drops the slot so later probes
// retry.
func (r *Runner) fillBound(pt Point, b *bound, target int64) {
	defer close(b.ready)
	var skey string
	if r.Store != nil {
		skey = r.storeKey(pt)
		if res, lb, hit := r.Store.GetProbe(skey); hit {
			if res != nil {
				r.adopt(pt, res)
			}
			b.lb.Store(lb)
			return
		}
	}
	lb, err := r.Suite.LowerBound(pt.Kind, pt.P)
	if err != nil {
		b.err = err
		r.mu.Lock()
		delete(r.bounds, pt)
		r.mu.Unlock()
		return
	}
	r.lbs.Add(1)
	b.lb.Store(lb)
	if lb > target && r.Store != nil {
		r.Store.PutBound(skey, lb)
	}
}

// adopt installs a store hit into the L1 as a settled entry, unless the
// point already has one (another caller claimed it meanwhile and reads
// or fills it itself).
func (r *Runner) adopt(pt Point, res *engine.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cache[pt]; ok {
		return
	}
	e := &entry{ready: make(chan struct{}), res: res}
	close(e.ready)
	r.cache[pt] = e
	r.storeHits.Add(1)
}

// heldBound returns the lower bound the L1 holds for pt, 0 if none.
func (r *Runner) heldBound(pt Point) int64 {
	r.mu.Lock()
	b := r.bounds[pt]
	r.mu.Unlock()
	if b == nil {
		return 0
	}
	return b.lb.Load()
}

// storeKey returns the persistent key for a point: the engine version
// tag and the suite's source key (lowering version, trace, partition
// assignment) joined with the canonical parameter encoding. The prefix
// is built once per Runner, on first use; each key is built in one
// buffer.
func (r *Runner) storeKey(pt Point) string {
	r.mu.Lock()
	if r.prefix == "" {
		r.prefix = engine.Version + "|" + r.Suite.Fingerprint() + "|"
	}
	p := r.prefix
	r.mu.Unlock()
	var buf [256]byte
	return string(pt.P.AppendCacheKey(append(buf[:0], p...), pt.Kind))
}

// install writes a freshly filled result into the Store, when attached.
func (r *Runner) install(pt Point, res *engine.Result) {
	if r.Store != nil {
		r.Store.Put(r.storeKey(pt), res)
	}
}

// Stats returns a snapshot of the runner's cache traffic.
func (r *Runner) Stats() CacheStats {
	return CacheStats{
		L1Hits:     r.l1Hits.Load(),
		StoreHits:  r.storeHits.Load(),
		RemoteHits: r.remoteHits.Load(),
		Sims:       r.sims.Load(),
		Degraded:   r.degraded.Load(),
		Pruned:     r.pruned.Load(),
		Bounds:     r.lbs.Load(),
	}
}

// RunAll executes a set of points as one unit, preserving order: L1
// and Store hits are peeled off locally, and the remaining misses go to
// RemoteBatch in a single call when it is set (else they simulate
// locally across the ForEach pool). This is the request-collapsing
// path of remote sweeps — a sweep whose points are all warm issues
// no remote traffic at all — and it keeps the
// single-flight contract: misses are claimed before filling, so
// concurrent overlapping calls never duplicate a simulation. The first
// error aborts the call; failed claims are dropped so later callers
// retry.
//
//daelint:ctx-root cancellation rides the RemoteBatch hook's captured context; local simulation is not cancellable mid-run
func (r *Runner) RunAll(pts []Point) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(pts))
	var owned, waiters []claim
	r.mu.Lock()
	for i, pt := range pts {
		if e, ok := r.cache[pt]; ok {
			waiters = append(waiters, claim{i, e})
			continue
		}
		e := &entry{ready: make(chan struct{})}
		r.cache[pt] = e
		owned = append(owned, claim{i, e})
	}
	r.mu.Unlock()

	// Fill owned claims: store first, then the misses. The store peel
	// fans its blob reads (disk + decode + checksum) across the worker
	// pool, so a warm-store sweep overlaps its I/O.
	var misses []claim
	if r.Store == nil {
		misses = owned
	} else {
		hits := make([]*engine.Result, len(owned))
		_ = ForEach(r.Parallelism, len(owned), func(j int) error {
			if res, hit := r.Store.Get(r.storeKey(pts[owned[j].idx])); hit {
				hits[j] = res
			}
			return nil
		})
		for j, c := range owned {
			if res := hits[j]; res != nil {
				r.storeHits.Add(1)
				c.e.res = res
				close(c.e.ready)
				out[c.idx] = res.Clone()
				continue
			}
			misses = append(misses, c)
		}
	}
	if len(misses) > 0 {
		if err := r.fillBatch(pts, misses, func(c claim, res *engine.Result) {
			c.e.res = res
			close(c.e.ready)
			out[c.idx] = res.Clone()
		}); err != nil {
			// Drop the unfilled claims so later callers retry rather
			// than replaying a possibly transient failure forever, and
			// settle their waiters with the error.
			r.mu.Lock()
			for _, c := range misses {
				if c.e.res == nil {
					delete(r.cache, pts[c.idx])
				}
			}
			r.mu.Unlock()
			for _, c := range misses {
				if c.e.res == nil {
					c.e.err = err
					close(c.e.ready)
				}
			}
			return nil, err
		}
	}

	// Entries owned elsewhere: every claim of ours is settled by now, so
	// waiting last cannot deadlock on our own call's duplicates.
	for _, c := range waiters {
		<-c.e.ready
		if c.e.err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", c.idx, c.e.err)
		}
		r.l1Hits.Add(1)
		out[c.idx] = c.e.res.Clone()
	}
	return out, nil
}

// claim is one point's L1 slot within a RunAll call: either
// owned by that call (it fills and settles the entry) or by another
// in-flight caller (the call waits on it).
type claim struct {
	idx int
	e   *entry
}

// fillBatch produces canonical results for claimed misses and hands
// each to settle. With RemoteBatch set, the misses travel in one call;
// every slot still empty after it (each one without the hook, the
// unserved ones of a degraded batch) simulates on the ForEach pool. A
// result must not come out below the bound the L1 holds for its point,
// and every result installs into the Store before any settles.
func (r *Runner) fillBatch(pts []Point, misses []claim, settle func(c claim, res *engine.Result)) error {
	var results []*engine.Result
	local, served := &r.sims, 0
	if r.RemoteBatch != nil {
		mpts := make([]Point, len(misses))
		for j, c := range misses {
			mpts[j] = pts[c.idx]
		}
		var err error
		results, err = r.RemoteBatch(mpts)
		if err != nil {
			if !r.Degrade || !errors.Is(err, ErrUnavailable) {
				return err
			}
			// Partial-batch degradation: the hook ran the batch against
			// the surviving owners and returned what it could (slots it
			// could not serve are nil, possibly all of them). The served
			// slots are remote hits and the rest simulate locally, so one
			// dead replica (or a whole dead fleet) degrades the batch
			// instead of failing it.
			local = &r.degraded
			if len(results) != len(mpts) {
				results = nil
			}
		} else if len(results) != len(mpts) {
			return fmt.Errorf("sweep: remote batch returned %d results for %d points", len(results), len(mpts))
		}
		for j, res := range results {
			switch {
			case res != nil:
				served++
			case err == nil:
				// Never settle a nil into the L1 or persist it: fail the
				// batch loudly like any other remote error. Indices in
				// errors are caller-relative (the batch's point list),
				// matching the local path.
				return fmt.Errorf("sweep: remote batch returned a nil result for point %d", misses[j].idx)
			}
		}
	}
	if results == nil {
		results = make([]*engine.Result, len(misses))
	}
	if err := ForEach(r.Parallelism, len(misses), func(j int) error {
		pt := pts[misses[j].idx]
		if results[j] == nil {
			res, err := r.Suite.Run(pt.Kind, pt.P)
			if err != nil {
				return fmt.Errorf("sweep: point %d: %w", misses[j].idx, err)
			}
			local.Add(1)
			results[j] = res
		}
		if lb := r.heldBound(pt); lb > results[j].Cycles {
			return fmt.Errorf("sweep: point %d: %w: %s: bound %d, %d cycles", misses[j].idx, ErrBoundViolated, string(pt.P.AppendCacheKey(nil, pt.Kind)), lb, results[j].Cycles)
		}
		r.install(pt, results[j])
		return nil
	}); err != nil {
		return err
	}
	r.remoteHits.Add(int64(served))
	for j, c := range misses {
		settle(c, results[j])
	}
	return nil
}

// Series is a named sequence of (x, y) samples, one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Windows returns the window sizes lo, lo+step, lo+2*step, ... up to and
// including hi when it lands on the grid.
func Windows(lo, hi, step int) []int {
	var out []int
	for w := lo; w <= hi; w += step {
		out = append(out, w)
	}
	return out
}

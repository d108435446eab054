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
// request, version skew). Remote hooks wrap it (errors.Is) to tell a
// Degrade-enabled Runner that falling back to local simulation is both
// safe and the only way forward; any other remote error still fails
// the point loudly.
var ErrUnavailable = errors.New("sweep: remote unavailable")

// Point identifies one simulation: a machine kind plus parameters. It
// is also the wire form of a sweepd run item's point.
type Point struct {
	Kind machine.Kind   `json:"kind"`
	P    machine.Params `json:"params"`
}

// key is the in-memory memoization key.
type key struct {
	kind machine.Kind
	p    machine.Params
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
	// RemoteHits are points served by a remote daemon (Runner.RemoteBatch
	// or Runner.Remote).
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
	// Uncacheable is always 0: every point is cacheable since memory
	// models became values (machine.Params.Mem). perfbench still reads
	// the field; the benchmark's next revision (ROADMAP item 2) deletes
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
	// a workload), so a probe wave or figure sweep becomes one HTTP
	// round trip per replica, and a single point a one-item batch.
	// Remote results are installed into the local Store (when attached)
	// like any fill. A remote error fails the call: a misconfigured or
	// unreachable daemon should surface, not silently degrade to local
	// simulation (the one explicit exception is Degrade +
	// ErrUnavailable). Set it before the first Run.
	RemoteBatch func([]Point) ([]*engine.Result, error)
	// Remote is the point-wise form of RemoteBatch, with the same
	// contract: when RemoteBatch is nil, each miss is sent through it
	// on its own. It is never called while RemoteBatch is set.
	Remote func(Point) (*engine.Result, error)
	// Degrade is the last rung of the failure ladder: when set, a
	// RemoteBatch/Remote failure that wraps ErrUnavailable (every owner
	// of the point is down) falls back to local simulation — counted as
	// Degraded, installed into the Store like any fill, byte-identical
	// by determinism — instead of failing the sweep. Any other remote
	// error still surfaces loudly, so misconfiguration (bad URL, skew,
	// bad request) never silently degrades.
	Degrade bool

	mu     sync.Mutex
	cache  map[key]*entry //daelint:guardedby mu
	prefix string         //daelint:guardedby mu -- engine version + suite fingerprint, built lazily

	l1Hits, storeHits, remoteHits, sims, degraded atomic.Int64
}

// NewRunner returns a Runner for the suite.
func NewRunner(s *machine.Suite) *Runner {
	return &Runner{Suite: s, cache: make(map[key]*entry)}
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

// fillMiss produces the canonical result for a point known to miss the
// store — through the Remote hook or the local simulator — and installs
// it.
func (r *Runner) fillMiss(pt Point) (*engine.Result, error) {
	var res *engine.Result
	var err error
	if r.Remote != nil {
		res, err = r.Remote(pt)
		switch {
		case err == nil:
			r.remoteHits.Add(1)
		case r.Degrade && errors.Is(err, ErrUnavailable):
			// Every owner is down: simulate locally so the sweep
			// completes (byte-identically — the remote would have run
			// the same deterministic simulation).
			res, err = r.Suite.Run(pt.Kind, pt.P)
			if err != nil {
				return nil, err
			}
			r.degraded.Add(1)
		default:
			return nil, err
		}
	} else {
		res, err = r.Suite.Run(pt.Kind, pt.P)
		if err != nil {
			return nil, err
		}
		r.sims.Add(1)
	}
	r.install(pt, res)
	return res, nil
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
	}
}

// RunAll executes a set of points as one unit, preserving order: L1
// and Store hits are peeled off locally, and the remaining misses go to
// RemoteBatch in a single call when it is set (else they are filled
// locally, or through Remote, across the ForEach pool). This is the
// request-collapsing path of remote sweeps — a probe wave whose points
// are all warm issues no remote traffic at all — and it keeps the
// single-flight contract: misses are claimed before filling, so
// concurrent overlapping calls never duplicate a simulation. The first
// error aborts the call; failed claims are dropped so later callers
// retry.
//
//daelint:ctx-root cancellation rides the remote hooks' captured context; local simulation is not cancellable mid-run
func (r *Runner) RunAll(pts []Point) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(pts))
	var owned, waiters []claim
	r.mu.Lock()
	for i, pt := range pts {
		// The key canonicalizes the retirement policy (RetireAuto
		// resolves to a concrete policy, exactly as the engine and the
		// store key see it), so an explicit-policy point and its
		// equivalent auto-policy point share one entry instead of
		// simulating twice.
		kp := pt.P
		kp.Retire = machine.ResolveRetire(kp.Retire)
		k := key{kind: pt.Kind, p: kp}
		if e, ok := r.cache[k]; ok {
			waiters = append(waiters, claim{i, e, k})
			continue
		}
		e := &entry{ready: make(chan struct{})}
		r.cache[k] = e
		owned = append(owned, claim{i, e, k})
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
					delete(r.cache, c.k)
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
	k   key
}

// fillBatch produces canonical results for claimed misses and hands
// each to settle. With RemoteBatch: one remote call for the whole set.
// Without: fillMiss across the ForEach pool. Results install into the
// Store either way.
func (r *Runner) fillBatch(pts []Point, misses []claim, settle func(c claim, res *engine.Result)) error {
	if r.RemoteBatch != nil {
		mpts := make([]Point, len(misses))
		for j, c := range misses {
			mpts[j] = pts[c.idx]
		}
		results, err := r.RemoteBatch(mpts)
		var unserved []bool
		if err != nil {
			if !r.Degrade || !errors.Is(err, ErrUnavailable) {
				return err
			}
			// Partial-batch degradation: the hook ran the batch against
			// the surviving owners and returned what it could (slots it
			// could not serve are nil — possibly all of them). Accept
			// the served slots as remote hits and simulate the rest
			// locally, so one dead replica (or a whole dead fleet)
			// degrades the batch instead of failing it.
			if len(results) != len(mpts) {
				results = make([]*engine.Result, len(mpts))
			}
			unserved = make([]bool, len(mpts))
			if err := ForEach(r.Parallelism, len(mpts), func(j int) error {
				if results[j] != nil {
					return nil
				}
				unserved[j] = true
				var err error
				if results[j], err = r.Suite.Run(mpts[j].Kind, mpts[j].P); err != nil {
					return fmt.Errorf("sweep: point %d: %w", misses[j].idx, err)
				}
				return nil
			}); err != nil {
				return err
			}
		}
		if len(results) != len(mpts) {
			return fmt.Errorf("sweep: remote batch returned %d results for %d points", len(results), len(mpts))
		}
		for j, res := range results {
			if res == nil {
				// Never settle a nil into the L1 or persist it: fail the
				// batch loudly like any other remote error. Indices in
				// errors are caller-relative (the batch's point list),
				// matching the local path.
				return fmt.Errorf("sweep: remote batch returned a nil result for point %d", misses[j].idx)
			}
		}
		for j, c := range misses {
			if unserved != nil && unserved[j] {
				r.degraded.Add(1)
			} else {
				r.remoteHits.Add(1)
			}
			r.install(pts[c.idx], results[j])
			settle(c, results[j])
		}
		return nil
	}
	results := make([]*engine.Result, len(misses))
	if err := ForEach(r.Parallelism, len(misses), func(j int) error {
		var err error
		if results[j], err = r.fillMiss(pts[misses[j].idx]); err != nil {
			return fmt.Errorf("sweep: point %d: %w", misses[j].idx, err)
		}
		return nil
	}); err != nil {
		return err
	}
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

// WindowSweep runs the machine at each window size and maps results
// through f (e.g. a speedup or LHE computation).
func (r *Runner) WindowSweep(kind machine.Kind, base machine.Params, windows []int, f func(w int, res *engine.Result) float64) (Series, error) {
	pts := make([]Point, len(windows))
	for i, w := range windows {
		p := base
		p.Window = w
		pts[i] = Point{Kind: kind, P: p}
	}
	results, err := r.RunAll(pts)
	if err != nil {
		return Series{}, err
	}
	s := Series{X: make([]float64, len(windows)), Y: make([]float64, len(windows))}
	for i, res := range results {
		s.X[i] = float64(windows[i])
		s.Y[i] = f(windows[i], res)
	}
	return s, nil
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

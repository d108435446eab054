// Package experiments reproduces every table and figure of the paper's
// evaluation, the auxiliary claims made in its text (DESIGN.md §5) and
// the design-choice studies (§6). Experiments lists every artifact.
package experiments

import (
	"errors"
	"fmt"
	"sync"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/metrics"
	"daesim/internal/partition"
	"daesim/internal/sweep"
	"daesim/internal/workloads"
)

// Context caches workload suites and runners across experiments.
type Context struct {
	// Scale multiplies workload sizes (1 = paper-default calibration).
	Scale int
	// Policy is the AU/DU partition policy (default Classic).
	Policy partition.Policy
	// Parallelism is the sweep.ForEach width of every fan-out the
	// context runs: the drivers' workloads, points and searches, and
	// each workload runner's RunAll fills (0 = GOMAXPROCS). Each
	// equivalent-window search probes one point at a time.
	Parallelism int
	// Cache, when non-nil, is the persistent result store handed to every
	// workload runner: simulation results survive process restarts and are
	// invalidated by engine-version bumps and workload recalibrations
	// (DESIGN.md §9). Set it before the first experiment runs.
	Cache *sweep.Store
	// Remote, when non-nil and RemoteBatch is nil, executes cacheable
	// points that miss the local cache layers one at a time — it becomes
	// each workload runner's Remote hook, bound to that workload, the
	// context's scale, and the local suite's source key (so a daemon
	// built from different workload, lowering or engine code refuses
	// instead of answering with skewed results).
	// internal/daemon.FleetClient.Run has this signature. Set it
	// before the first experiment runs.
	Remote func(workload string, scale int, fingerprint string, pt sweep.Point) (*engine.Result, error)
	// RemoteBatch, when non-nil, executes point sets remotely in one
	// call, bound like Remote — it becomes each workload runner's
	// RemoteBatch hook, so figure sweeps and search probe waves travel
	// as one request per fleet replica instead of one per point, and a
	// single point as a one-item batch; Remote is then never called.
	// daemon.FleetClient.RunBatch has this signature, so attaching a
	// fleet client routes every cacheable simulation through running
	// sweepd replicas (repro -remote; DESIGN.md §10-11). Set it before
	// the first experiment runs.
	RemoteBatch func(workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error)
	// RemoteSearch, when non-nil, executes a whole curve of
	// equivalent-window ratio searches (the unit of Figures 7-9)
	// server-side in one call, instead of probing locally and shipping
	// each probe wave. The answers are identical either way — the search
	// probe path is a fixed function of its inputs
	// (metrics.EquivalentWindow), not of where it executes — but a
	// server-side curve is one round trip where even a batched local
	// search needs several per ratio point.
	// daemon.FleetClient.RatioBatch has this signature (repro -remote
	// attaches it). Set it before the first experiment runs.
	RemoteSearch func(workload string, scale int, fingerprint string, params []machine.Params) ([]RatioAnswer, error)
	// Degrade, when set, arms every runner's last-resort fallback: a
	// RemoteBatch/Remote call failing with sweep.ErrUnavailable (every
	// candidate replica down or exhausted — daemon.FleetClient reports
	// exactly that) is answered by simulating the affected points
	// locally instead of failing the experiment, counted under
	// CacheStats.Degraded. RemoteSearch curves fall back to the local
	// search path wholesale under the same condition. Results are
	// byte-identical either way — local and remote execution are the
	// same deterministic function — so repro -remote completes even
	// with the whole fleet down (repro -degrade=false to fail loudly
	// instead). Set it before the first experiment runs.
	Degrade bool

	mu         sync.Mutex
	runners    map[string]*runnerEntry
	extraStats sweep.CacheStats // detached runners' traffic (see addStats)
}

// runnerEntry is a single-flight slot for one workload's runner: the
// first caller builds the trace and its suite outside the context lock;
// concurrent callers block on ready. Without this, sharded drivers that
// first-touch several workloads at once (Table1's construction phase)
// would serialize the expensive builds on the context mutex.
type runnerEntry struct {
	ready chan struct{}
	r     *sweep.Runner
	err   error
}

// NewContext returns a Context at scale 1 with the classic partition.
func NewContext() *Context {
	return &Context{Scale: 1, runners: make(map[string]*runnerEntry)}
}

// Runner returns the memoizing runner for a workload, building the trace
// and its suite on first use. The suite lowers each machine's program on
// the first point that simulates.
func (c *Context) Runner(name string) (*sweep.Runner, error) {
	c.mu.Lock()
	if e, ok := c.runners[name]; ok {
		c.mu.Unlock()
		<-e.ready
		return e.r, e.err
	}
	e := &runnerEntry{ready: make(chan struct{})}
	c.runners[name] = e
	c.mu.Unlock()

	e.r, e.err = c.buildRunner(name)
	if e.err != nil {
		c.mu.Lock()
		delete(c.runners, name)
		c.mu.Unlock()
	}
	close(e.ready)
	return e.r, e.err
}

// buildRunner constructs a workload's trace, suite and runner.
func (c *Context) buildRunner(name string) (*sweep.Runner, error) {
	tr, err := workloads.Build(name, c.Scale)
	if err != nil {
		return nil, err
	}
	suite, err := machine.NewSuite(tr, c.Policy)
	if err != nil {
		return nil, err
	}
	return c.newRunner(name, suite), nil
}

// newRunner returns a runner over suite, a suite of workload name, with
// the context's parallelism, store, degrade setting and remote hooks,
// each hook bound to the workload, the context's scale and the suite's
// fingerprint.
func (c *Context) newRunner(name string, suite *machine.Suite) *sweep.Runner {
	r := sweep.NewRunner(suite)
	r.Parallelism = c.Parallelism
	r.Store = c.Cache
	r.Degrade = c.Degrade
	scale, fp := c.Scale, suite.Fingerprint()
	if remote := c.Remote; remote != nil {
		r.Remote = func(pt sweep.Point) (*engine.Result, error) {
			return remote(name, scale, fp, pt)
		}
	}
	if rb := c.RemoteBatch; rb != nil {
		r.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) {
			return rb(name, scale, fp, pts)
		}
	}
	return r
}

// CacheStats aggregates cache traffic across every runner the context
// has built so far (the run summary of cmd/repro), including the
// ad-hoc runners the policy study builds for non-default partitions.
func (c *Context) CacheStats() sweep.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total sweep.CacheStats
	for _, e := range c.runners { //daelint:nondeterministic-ok commutative sum of cache counters for the run summary; not a figure value
		select { //daelint:nondeterministic-ok advisory snapshot: a runner still building contributes no traffic yet
		case <-e.ready:
			if e.r != nil {
				total.Add(e.r.Stats())
			}
		default: // still building: no traffic yet
		}
	}
	total.Add(c.extraStats)
	return total
}

// addStats folds a detached runner's counters into the context totals
// (used by drivers that build suites outside the per-workload cache).
func (c *Context) addStats(s sweep.CacheStats) {
	c.mu.Lock()
	c.extraStats.Add(s)
	c.mu.Unlock()
}

// StoreStats returns the persistent store's counters (zero value when no
// cache is attached).
func (c *Context) StoreStats() sweep.StoreStats {
	if c.Cache == nil {
		return sweep.StoreStats{}
	}
	return c.Cache.Stats()
}

// MD values used across the study.
const (
	MDZero = 0
	MDFull = 60 // the paper's headline memory differential
)

// Table1Windows are the finite DM window sizes reported in Table 1. The
// paper's column headers are lost to OCR; DESIGN.md §2 documents the
// choice of powers of two from 8 to 128 plus the unlimited column.
var Table1Windows = []int{8, 16, 32, 64, 128}

// Table1Row is one program's latency-hiding effectiveness.
type Table1Row struct {
	Name string
	Band workloads.Band
	// LHE[i] corresponds to Table1Windows[i].
	LHE []float64
	// Unlimited is the unlimited-window LHE.
	Unlimited float64
}

// Table1Result reproduces Table 1.
type Table1Result struct {
	MD      int
	Windows []int
	Rows    []Table1Row
}

// Table1 measures DM latency-hiding effectiveness for all seven programs
// at MD=60 across window sizes. The table is sharded two ways: workload
// construction (trace build, partition, lowering statistics) fans out
// across the pool, then every (workload, window, MD) point — they are all
// independent — joins one global work list instead of running
// workload-serial.
func (c *Context) Table1() (*Table1Result, error) {
	specs := workloads.Catalog()
	runners := make([]*sweep.Runner, len(specs))
	if err := sweep.ForEach(c.Parallelism, len(specs), func(i int) error {
		r, err := c.Runner(specs[i].Name)
		runners[i] = r
		return err
	}); err != nil {
		return nil, err
	}
	windows := append(append([]int(nil), Table1Windows...), 0)
	mds := []int{MDFull, MDZero} // actual, perfect
	// Jobs run workload-minor: consecutive jobs touch different suites,
	// so the pool's first runs lower the seven DM programs side by side
	// instead of queuing behind one suite's lowering.
	job := func(i, wi, mi int) int { return (wi*len(mds)+mi)*len(specs) + i }
	jobs := make([]sweep.Point, len(windows)*len(mds)*len(specs))
	for wi, w := range windows {
		for mi, md := range mds {
			for i := range specs {
				jobs[job(i, wi, mi)] = sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: md}}
			}
		}
	}
	results := make([]*engine.Result, len(jobs))
	if err := sweep.ForEach(c.Parallelism, len(jobs), func(j int) error {
		res, err := runners[j%len(specs)].Run(jobs[j])
		results[j] = res
		return err
	}); err != nil {
		return nil, err
	}
	res := &Table1Result{MD: MDFull, Windows: Table1Windows}
	res.Rows = make([]Table1Row, len(specs))
	for i, spec := range specs {
		row := &res.Rows[i]
		*row = Table1Row{Name: spec.Name, Band: spec.Band}
		for wi, w := range windows {
			actual, perfect := results[job(i, wi, 0)], results[job(i, wi, 1)]
			lhe := metrics.LHE(perfect.Cycles, actual.Cycles)
			if w == 0 {
				row.Unlimited = lhe
			} else {
				row.LHE = append(row.LHE, lhe)
			}
		}
	}
	return res, nil
}

// FigureWindows are the window sizes swept in Figures 4-6 (the paper
// plots 0..100).
var FigureWindows = sweep.Windows(4, 100, 8)

// FigureResult reproduces one of Figures 4-6: speedup vs window size for
// the DM and SWSM at MD=0 and MD=60.
type FigureResult struct {
	Number   int
	Workload string
	// Series order: DM md=0, SWSM md=0, DM md=60, SWSM md=60 (paper's
	// legend order, with the paper's "ADM" label meaning the DM).
	Series []sweep.Series
}

// Figure measures one of Figures 4-6 for the named workload.
func (c *Context) Figure(name string) (*FigureResult, error) {
	num, ok := paperFigure(name, false)
	if !ok {
		return nil, fmt.Errorf("experiments: %q is not a figure workload (want one of %v)", name, workloads.FigureNames())
	}
	return c.FigureNamed(num, name)
}

// FigureNamed measures a Figure 4-6 style speedup sweep for any
// registered workload — including generated "spec:..." workloads —
// labeled with the given figure number. Figure is the paper-pinned
// special case; this is the sweepable general one (repro -workload).
func (c *Context) FigureNamed(num int, name string) (*FigureResult, error) {
	r, err := c.Runner(name)
	if err != nil {
		return nil, err
	}
	res := &FigureResult{Number: num, Workload: name}
	configs := []struct {
		kind machine.Kind
		md   int
	}{
		{machine.DM, MDZero}, {machine.SWSM, MDZero},
		{machine.DM, MDFull}, {machine.SWSM, MDFull},
	}
	// All four curves batch into one point list, so the sweep's worker
	// pool drains the whole figure at once instead of curve by curve.
	pts := make([]sweep.Point, 0, len(configs)*len(FigureWindows))
	for _, cfg := range configs {
		for _, w := range FigureWindows {
			pts = append(pts, sweep.Point{Kind: cfg.kind, P: machine.Params{Window: w, MD: cfg.md}})
		}
	}
	results, err := r.RunAll(pts)
	if err != nil {
		return nil, err
	}
	for ci, cfg := range configs {
		serial := machine.SerialCycles(r.Suite.Trace, machine.Params{MD: cfg.md}.Timing())
		s := sweep.Series{
			Name: fmt.Sprintf("%s md=%d", cfg.kind, cfg.md),
			X:    make([]float64, len(FigureWindows)),
			Y:    make([]float64, len(FigureWindows)),
		}
		for wi, w := range FigureWindows {
			s.X[wi] = float64(w)
			s.Y[wi] = metrics.Speedup(serial, results[ci*len(FigureWindows)+wi].Cycles)
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// RatioWindows and RatioMDs parameterize Figures 7-9.
var (
	RatioWindows = sweep.Windows(10, 100, 10)
	RatioMDs     = []int{0, 10, 20, 30, 40, 50, 60}
)

// RatioResult reproduces one of Figures 7-9: the equivalent window ratio
// (SWSM window matching DM performance, over the DM window) as a function
// of DM window size, one curve per memory differential.
type RatioResult struct {
	Number   int
	Workload string
	// Series[i] is the curve for RatioMDs[i]; points where the SWSM could
	// not match the DM within metrics.MaxEquivalentWindow are recorded in
	// Saturated.
	Series    []sweep.Series
	Saturated map[int][]int // md -> DM windows where the search saturated
}

// RatioFigure measures one of Figures 7-9 for the named workload.
func (c *Context) RatioFigure(name string) (*RatioResult, error) {
	num, ok := paperFigure(name, true)
	if !ok {
		return nil, fmt.Errorf("experiments: %q is not a ratio-figure workload (want one of %v)", name, workloads.FigureNames())
	}
	return c.RatioFigureNamed(num, name)
}

// RatioFigureNamed measures a Figure 7-9 style equivalent-window ratio
// curve for any registered workload — including generated "spec:..."
// workloads — labeled with the given figure number (see FigureNamed).
func (c *Context) RatioFigureNamed(num int, name string) (*RatioResult, error) {
	r, err := c.Runner(name)
	if err != nil {
		return nil, err
	}
	// answers[mi][wi] is the search answer at RatioMDs[mi], RatioWindows[wi].
	answers := make([][]RatioAnswer, len(RatioMDs))
	for mi := range answers {
		answers[mi] = make([]RatioAnswer, len(RatioWindows))
	}
	ratioAt := func(mi, wi int) error {
		ratio, ok, err := metrics.EquivalentWindowRatio(r, machine.Params{Window: RatioWindows[wi], MD: RatioMDs[mi]})
		answers[mi][wi] = RatioAnswer{Ratio: ratio, OK: ok}
		return err
	}
	if c.RemoteSearch != nil {
		// With a remote search service attached, each MD curve travels
		// as one server-side batch: the daemon runs the same
		// deterministic searches over its own shared cache, so a whole
		// figure costs a few round trips instead of one per probe wave —
		// and the values are identical to the local path by
		// construction. A curve whose owners are all unavailable is
		// searched locally, point by point on this worker, when Degrade
		// is set: the probes then flow through the runner, whose own
		// Degrade fallback absorbs any remaining point-level outage.
		fp := r.Suite.Fingerprint()
		err = sweep.ForEach(c.Parallelism, len(RatioMDs), func(mi int) error {
			params := make([]machine.Params, len(RatioWindows))
			for wi, w := range RatioWindows {
				params[wi] = machine.Params{Window: w, MD: RatioMDs[mi]}
			}
			got, err := c.RemoteSearch(name, c.Scale, fp, params)
			if err != nil {
				if !c.Degrade || !errors.Is(err, sweep.ErrUnavailable) {
					return err
				}
				for wi := range RatioWindows {
					if err := ratioAt(mi, wi); err != nil {
						return err
					}
				}
				return nil
			}
			if len(got) != len(params) {
				return fmt.Errorf("experiments: remote search returned %d answers for %d ratio points", len(got), len(params))
			}
			copy(answers[mi], got)
			c.addStats(sweep.CacheStats{RemoteSearches: int64(len(params))})
			return nil
		})
	} else {
		// Every (MD, window) point is an independent search, so the
		// pool schedules points, not curves, and no worker idles while
		// another finishes a long curve. Every probe routes through the
		// shared Runner, so curves still share memoized results with
		// each other and with other sweeps.
		err = sweep.ForEach(c.Parallelism, len(RatioMDs)*len(RatioWindows), func(i int) error {
			return ratioAt(i/len(RatioWindows), i%len(RatioWindows))
		})
	}
	if err != nil {
		return nil, err
	}
	res := &RatioResult{Number: num, Workload: name, Saturated: map[int][]int{}}
	for mi, md := range RatioMDs {
		s := sweep.Series{Name: fmt.Sprintf("md=%d", md)}
		for wi, a := range answers[mi] {
			if !a.OK {
				res.Saturated[md] = append(res.Saturated[md], RatioWindows[wi])
				continue
			}
			s.X = append(s.X, float64(RatioWindows[wi]))
			s.Y = append(s.Y, a.Ratio)
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// RatioAnswer is one RemoteSearch result: the equivalent-window ratio
// at a DM configuration, or OK=false when the search saturated.
type RatioAnswer struct {
	Ratio float64
	OK    bool
}

// CutoffRow records the MD=0 crossover for one program.
type CutoffRow struct {
	Name string
	// Window is the smallest swept window at which the SWSM matches or
	// beats the DM; Found is false if none exists in the sweep.
	Window int
	Found  bool
}

// CutoffResult reproduces the text's claim that at MD=0 every program has
// a cutoff window beyond which the SWSM performs better (C1).
type CutoffResult struct {
	Windows []int
	Rows    []CutoffRow
}

// Cutoffs locates the MD=0 crossover window for every workload. The
// workloads fan out across the pool; each scans its windows in order and
// stops at its crossover.
func (c *Context) Cutoffs() (*CutoffResult, error) {
	windows := sweep.Windows(4, 128, 4)
	specs := workloads.Catalog()
	res := &CutoffResult{Windows: windows, Rows: make([]CutoffRow, len(specs))}
	if err := sweep.ForEach(c.Parallelism, len(specs), func(i int) error {
		r, err := c.Runner(specs[i].Name)
		if err != nil {
			return err
		}
		w, found, err := metrics.Crossover(r, machine.Params{MD: MDZero}, windows)
		res.Rows[i] = CutoffRow{Name: specs[i].Name, Window: w, Found: found}
		return err
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// runAll runs one workload's points as one Runner.RunAll: they fan out
// across the runner's pool (or travel as one RemoteBatch call) and come
// back in order.
func (c *Context) runAll(name string, pts []sweep.Point) ([]*engine.Result, error) {
	r, err := c.Runner(name)
	if err != nil {
		return nil, err
	}
	return r.RunAll(pts)
}

// BigWindowRow compares the machines at one large window.
type BigWindowRow struct {
	Name     string
	Window   int
	DMCycles int64
	SWCycles int64
}

// BigWindowResult probes the text's claim that at MD=60 the DM stays
// ahead even for very large (1000-slot) windows (C2).
type BigWindowResult struct {
	MD   int
	Rows []BigWindowRow
}

// BigWindow compares DM and SWSM at large windows and MD=60.
func (c *Context) BigWindow() (*BigWindowResult, error) {
	res := &BigWindowResult{MD: MDFull}
	windows := []int{256, 512, 1000}
	for _, name := range workloads.FigureNames() {
		pts := make([]sweep.Point, 0, 2*len(windows))
		for _, w := range windows {
			p := machine.Params{Window: w, MD: MDFull}
			pts = append(pts, sweep.Point{Kind: machine.DM, P: p}, sweep.Point{Kind: machine.SWSM, P: p})
		}
		results, err := c.runAll(name, pts)
		if err != nil {
			return nil, err
		}
		for i, w := range windows {
			res.Rows = append(res.Rows, BigWindowRow{Name: name, Window: w, DMCycles: results[2*i].Cycles, SWCycles: results[2*i+1].Cycles})
		}
	}
	return res, nil
}

// ESWRow records effective-single-window statistics for one point.
type ESWRow struct {
	Name    string
	Window  int
	MD      int
	MaxESW  int64
	AvgESW  float64
	MaxSlip int64
	AvgSlip float64
}

// ESWResult quantifies the paper's §4 concept: dynamic slippage makes the
// effective single window larger than the sum of the two windows (C3).
type ESWResult struct {
	Rows []ESWRow
}

// ESWStudy measures ESW and slippage for the figure workloads. It sweeps
// MD from 10 to 60 (not 0: with a zero differential the decoupled memory
// never back-pressures the AU, so dispatch-frontier distance degenerates
// to pure rate imbalance and stops measuring latency-driven slippage).
func (c *Context) ESWStudy() (*ESWResult, error) {
	res := &ESWResult{}
	for _, name := range workloads.FigureNames() {
		// Through the runner: CollectESW is part of the cache key, so
		// ESW points persist like any other.
		var pts []sweep.Point
		for _, w := range []int{16, 64} {
			for _, md := range []int{10, 30, MDFull} {
				pts = append(pts, sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: md, CollectESW: true}})
			}
		}
		results, err := c.runAll(name, pts)
		if err != nil {
			return nil, err
		}
		for i, rr := range results {
			res.Rows = append(res.Rows, ESWRow{
				Name: name, Window: pts[i].P.Window, MD: pts[i].P.MD,
				MaxESW: rr.MaxESW, AvgESW: rr.AvgESW,
				MaxSlip: rr.MaxSlip, AvgSlip: rr.AvgSlip,
			})
		}
	}
	return res, nil
}

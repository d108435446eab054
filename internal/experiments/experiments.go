// Package experiments reproduces every table and figure of the paper's
// evaluation, plus the auxiliary claims made in its text (DESIGN.md §5).
//
// Artifacts:
//
//	Table1       — DM latency-hiding effectiveness vs window size, MD=60
//	Figure 4/5/6 — speedup vs window size for FLO52Q, MDG, TRACK
//	Figure 7/8/9 — equivalent window ratio vs DM window size
//	Cutoffs      — MD=0 windows where the SWSM overtakes the DM (C1)
//	BigWindow    — DM vs SWSM at very large windows, MD=60 (C2)
//	ESWStudy     — effective-single-window and slippage measurements (C3)
//	Ablations    — design-choice studies (A1..A5)
package experiments

import (
	"errors"
	"fmt"
	"runtime"
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
	// Parallelism caps each workload runner's concurrent simulations and
	// the equivalent-window search fan-out (0 = GOMAXPROCS).
	Parallelism int
	// Cache, when non-nil, is the persistent result store handed to every
	// workload runner: simulation results survive process restarts and are
	// invalidated by engine-version bumps and workload recalibrations
	// (DESIGN.md §9). Set it before the first experiment runs.
	Cache *sweep.Store
	// Remote, when non-nil, executes cacheable points that miss the local
	// cache layers — it becomes each workload runner's Remote hook, bound
	// to that workload, the context's scale, and the local suite's
	// content fingerprint (so a daemon built from different workload or
	// engine code refuses instead of answering with skewed results).
	// internal/daemon.FleetClient.Run has this signature, so attaching a
	// fleet client routes every cacheable simulation through running
	// sweepd replicas (repro -remote; DESIGN.md §10-11). Detached runners built
	// outside the per-workload cache (the policy study's non-default
	// partitions) still simulate locally. Set it before the first
	// experiment runs.
	Remote func(workload string, scale int, fingerprint string, pt sweep.Point) (*engine.Result, error)
	// RemoteBatch, when non-nil, executes whole point sets remotely in
	// one call — it becomes each workload runner's RemoteBatch hook, so
	// figure sweeps and search probe waves travel as one request per
	// fleet replica instead of one per point
	// (daemon.FleetClient.RunBatch has this signature; repro -remote
	// attaches it alongside Remote). Set it before the first experiment
	// runs.
	RemoteBatch func(workload string, scale int, fingerprint string, pts []sweep.Point) ([]*engine.Result, error)
	// RemoteSearch, when non-nil, executes a whole curve of
	// equivalent-window ratio searches (the unit of Figures 7-9)
	// server-side in one call, instead of probing locally and shipping
	// each probe wave. The answers are identical either way — the search
	// probe path is a fixed function of its inputs (metrics.Search), not
	// of where it executes — but a server-side curve is one round trip
	// where even a batched local search needs several per ratio point.
	// daemon.FleetClient.RatioBatch has this signature (repro -remote
	// attaches it). Set it before the first experiment runs.
	RemoteSearch func(workload string, scale int, fingerprint string, params []machine.Params) ([]RatioAnswer, error)
	// Degrade, when set, arms every runner's last-resort fallback: a
	// Remote/RemoteBatch call failing with sweep.ErrUnavailable (every
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
// first caller builds the trace and lowers it outside the context lock;
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
// and lowering it on first use.
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

// buildRunner constructs a workload's trace, lowering and runner.
func (c *Context) buildRunner(name string) (*sweep.Runner, error) {
	tr, err := workloads.Build(name, c.Scale)
	if err != nil {
		return nil, err
	}
	suite, err := machine.NewSuite(tr, c.Policy)
	if err != nil {
		return nil, err
	}
	r := sweep.NewRunner(suite)
	r.Parallelism = c.Parallelism
	r.Store = c.Cache
	r.Degrade = c.Degrade
	if c.Remote != nil {
		remote, scale, fp := c.Remote, c.Scale, suite.Fingerprint()
		r.Remote = func(pt sweep.Point) (*engine.Result, error) {
			return remote(name, scale, fp, pt)
		}
	}
	if c.RemoteBatch != nil {
		rb, scale, fp := c.RemoteBatch, c.Scale, suite.Fingerprint()
		r.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) {
			return rb(name, scale, fp, pts)
		}
	}
	return r, nil
}

// par returns the effective worker-pool width.
func (c *Context) par() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0) //daelint:nondeterministic-ok worker-pool width only; every result lands in a shard indexed by input, not by completion order
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
// construction (trace build + lowering) fans out across the pool, then
// every (workload, window, MD) point — they are all independent — joins
// one global work list instead of running workload-serial.
func (c *Context) Table1() (*Table1Result, error) {
	specs := workloads.Catalog()
	runners := make([]*sweep.Runner, len(specs))
	if err := forEach(c.par(), len(specs), func(i int) error {
		r, err := c.Runner(specs[i].Name)
		runners[i] = r
		return err
	}); err != nil {
		return nil, err
	}
	windows := append(append([]int(nil), Table1Windows...), 0)
	type job struct {
		workload, window int
		pt               sweep.Point
	}
	var jobs []job
	for i := range specs {
		for wi, w := range windows {
			jobs = append(jobs,
				job{i, wi, sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: MDFull}}},
				job{i, wi, sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: MDZero}}})
		}
	}
	results := make([]*engine.Result, len(jobs))
	if err := forEach(c.par(), len(jobs), func(j int) error {
		res, err := runners[jobs[j].workload].Run(jobs[j].pt)
		results[j] = res
		return err
	}); err != nil {
		return nil, err
	}
	res := &Table1Result{MD: MDFull, Windows: Table1Windows}
	res.Rows = make([]Table1Row, len(specs))
	for i, spec := range specs {
		res.Rows[i] = Table1Row{Name: spec.Name, Band: spec.Band}
	}
	for j := 0; j < len(jobs); j += 2 {
		actual, perfect := results[j], results[j+1]
		row := &res.Rows[jobs[j].workload]
		lhe := metrics.LHE(perfect.Cycles, actual.Cycles)
		if windows[jobs[j].window] == 0 {
			row.Unlimited = lhe
		} else {
			row.LHE = append(row.LHE, lhe)
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

// figureNumber maps workloads to the paper's figure numbering.
var figureNumber = map[string]int{"FLO52Q": 4, "MDG": 5, "TRACK": 6}

// Figure measures one of Figures 4-6 for the named workload.
func (c *Context) Figure(name string) (*FigureResult, error) {
	num, ok := figureNumber[name]
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

// ratioFigureNumber maps workloads to the paper's figure numbering.
var ratioFigureNumber = map[string]int{"FLO52Q": 7, "MDG": 8, "TRACK": 9}

// RatioFigure measures one of Figures 7-9 for the named workload.
func (c *Context) RatioFigure(name string) (*RatioResult, error) {
	num, ok := ratioFigureNumber[name]
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
	res := &RatioResult{Number: num, Workload: name, Saturated: map[int][]int{}}
	res.Series = make([]sweep.Series, len(RatioMDs))
	par := c.par()
	var mu sync.Mutex // guards res.Saturated
	// localCurve measures one MD curve through the local search path.
	// Every probe routes through the shared Runner, so curves share
	// memoized DM anchors and SWSM probes with each other and with
	// other sweeps. Each curve's probe fan-out gets a slice of the
	// pool; the division overcommits slightly (searches spend time
	// between waves) rather than letting finished curves idle the pool.
	searchPar := 2 * par / len(RatioMDs)
	if searchPar < 1 {
		searchPar = 1
	}
	localCurve := func(mi int) error {
		md := RatioMDs[mi]
		search := metrics.NewSearch(r)
		search.Parallelism = searchPar
		s := sweep.Series{Name: fmt.Sprintf("md=%d", md)}
		for _, w := range RatioWindows {
			ratio, ok, err := search.EquivalentWindowRatio(machine.Params{Window: w, MD: md})
			if err != nil {
				return err
			}
			if !ok {
				mu.Lock()
				res.Saturated[md] = append(res.Saturated[md], w)
				mu.Unlock()
				continue
			}
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, ratio)
		}
		res.Series[mi] = s
		return nil
	}
	// With a remote search service attached, each MD curve travels as
	// one server-side batch: the daemon runs the same deterministic
	// searches over its own shared cache, so a whole figure costs a few
	// round trips instead of one per probe wave — and the values are
	// identical to the local path by construction. A curve whose owners
	// are all unavailable falls back to localCurve wholesale when
	// Degrade is set: the probes then flow through the runner, whose
	// own Degrade fallback absorbs any remaining point-level outage.
	if c.RemoteSearch != nil {
		fp := r.Suite.Fingerprint()
		if err := forEach(par, len(RatioMDs), func(mi int) error {
			md := RatioMDs[mi]
			params := make([]machine.Params, len(RatioWindows))
			for wi, w := range RatioWindows {
				params[wi] = machine.Params{Window: w, MD: md}
			}
			answers, err := c.RemoteSearch(name, c.Scale, fp, params)
			if err != nil {
				if c.Degrade && errors.Is(err, sweep.ErrUnavailable) {
					return localCurve(mi)
				}
				return err
			}
			if len(answers) != len(params) {
				return fmt.Errorf("experiments: remote search returned %d answers for %d ratio points", len(answers), len(params))
			}
			s := sweep.Series{Name: fmt.Sprintf("md=%d", md)}
			for wi, a := range answers {
				if !a.OK {
					mu.Lock()
					res.Saturated[md] = append(res.Saturated[md], RatioWindows[wi])
					mu.Unlock()
					continue
				}
				s.X = append(s.X, float64(RatioWindows[wi]))
				s.Y = append(s.Y, a.Ratio)
			}
			res.Series[mi] = s
			c.addStats(sweep.CacheStats{RemoteSearches: int64(len(params))})
			return nil
		}); err != nil {
			return nil, err
		}
		return res, nil
	}
	// The MD curves are independent, so they fan out across the pool:
	// one goroutine and one Search per curve (a Search parallelizes
	// internally but is not safe for concurrent use).
	if err := forEach(par, len(RatioMDs), localCurve); err != nil {
		return nil, err
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

// Cutoffs locates the MD=0 crossover window for every workload.
func (c *Context) Cutoffs() (*CutoffResult, error) {
	windows := sweep.Windows(4, 128, 4)
	res := &CutoffResult{Windows: windows}
	for _, spec := range workloads.Catalog() {
		r, err := c.Runner(spec.Name)
		if err != nil {
			return nil, err
		}
		row := CutoffRow{Name: spec.Name}
		for _, w := range windows {
			dm, err := r.Run(sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: MDZero}})
			if err != nil {
				return nil, err
			}
			sw, err := r.Run(sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: w, MD: MDZero}})
			if err != nil {
				return nil, err
			}
			if sw.Cycles <= dm.Cycles {
				row.Window, row.Found = w, true
				break
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
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
	for _, name := range workloads.FigureNames() {
		r, err := c.Runner(name)
		if err != nil {
			return nil, err
		}
		for _, w := range []int{256, 512, 1000} {
			dm, err := r.Run(sweep.Point{Kind: machine.DM, P: machine.Params{Window: w, MD: MDFull}})
			if err != nil {
				return nil, err
			}
			sw, err := r.Run(sweep.Point{Kind: machine.SWSM, P: machine.Params{Window: w, MD: MDFull}})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, BigWindowRow{Name: name, Window: w, DMCycles: dm.Cycles, SWCycles: sw.Cycles})
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
	sim := engine.NewSim()
	for _, name := range workloads.FigureNames() {
		r, err := c.Runner(name)
		if err != nil {
			return nil, err
		}
		for _, w := range []int{16, 64} {
			for _, md := range []int{10, 30, MDFull} {
				// Through the runner: CollectESW is part of the cache
				// key, so ESW points persist like any other.
				p := machine.Params{Window: w, MD: md, CollectESW: true}
				rr, err := r.RunWith(sim, sweep.Point{Kind: machine.DM, P: p})
				if err != nil {
					return nil, err
				}
				res.Rows = append(res.Rows, ESWRow{
					Name: name, Window: w, MD: md,
					MaxESW: rr.MaxESW, AvgESW: rr.AvgESW,
					MaxSlip: rr.MaxSlip, AvgSlip: rr.AvgSlip,
				})
			}
		}
	}
	return res, nil
}

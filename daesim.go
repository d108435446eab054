// Package daesim reproduces Jones & Topham, "A Comparison of Data
// Prefetching on an Access Decoupled and Superscalar Machine" (MICRO-30,
// 1997): a trace-driven simulator of an access decoupled machine (DM) and
// a single-window out-of-order superscalar machine (SWSM), the seven
// PERFECT-club-style workloads the paper evaluates, and drivers that
// regenerate every table and figure of its evaluation.
//
// # Quick start
//
//	tr, _ := daesim.Workload("FLO52Q", 1)
//	suite, _ := daesim.NewSuite(tr, daesim.Classic)
//	res, _ := suite.RunDM(daesim.Params{Window: 64, MD: 60})
//	fmt.Println(res.Cycles, res.IPC())
//
// # Architecture
//
// Traces (package-internal dataflow DAGs with perfect renaming and no
// branches, per the paper's idealized environment) are authored with the
// kernel builder, partitioned into AU/DU streams, lowered to machine
// programs, and executed on an event-driven out-of-order window engine.
// See DESIGN.md for the full inventory and EXPERIMENTS.md for measured
// results against the paper.
package daesim

import (
	"daesim/internal/daemon"
	"daesim/internal/engine"
	"daesim/internal/experiments"
	"daesim/internal/isa"
	"daesim/internal/kernel"
	"daesim/internal/machine"
	"daesim/internal/memsys"
	"daesim/internal/metrics"
	"daesim/internal/partition"
	"daesim/internal/sweep"
	"daesim/internal/trace"
	"daesim/internal/workgen"
	"daesim/internal/workloads"
)

// Machine models.
type (
	// Kind selects a machine model: DM or SWSM.
	Kind = machine.Kind
	// Params configures one simulation run; the zero value plus Window and
	// MD reproduces the paper's configuration (one Window per DM unit,
	// AU/DU widths 4/5, SWSM width 9, FP latency 3, copy latency 1,
	// window-scaled memory queue, in-order retirement).
	Params = machine.Params
	// Suite is one trace under one partition policy; build once, run many
	// configurations. Each machine's program is lowered on its first run.
	Suite = machine.Suite
	// Result reports cycles and microarchitectural statistics.
	Result = engine.Result
	// Sim is a reusable engine scratch context: hold one per goroutine and
	// pass it to Suite.RunWith so repeated runs allocate almost
	// nothing. The plain Run methods draw from a shared pool.
	Sim = engine.Sim
)

// NewSim returns an empty reusable simulation context (see Sim).
func NewSim() *Sim { return engine.NewSim() }

// Machine kinds.
const (
	// DM is the access decoupled machine (AU + DU + decoupled memory).
	DM = machine.DM
	// SWSM is the single-window superscalar machine with a prefetch buffer.
	SWSM = machine.SWSM
)

// Unbounded disables the outstanding-fill queue limit in Params.MemQueue.
const Unbounded = machine.Unbounded

// RetirePolicy selects how window slots are reclaimed (Params.Retire).
// The zero value RetireInOrder is the default on both machines
// (ROB/FIFO-queue-style); RetireAtComplete forces the older
// free-at-completion accounting (ablation A6, EXPERIMENTS.md).
type RetirePolicy = machine.RetirePolicy

const (
	// RetireInOrder frees window slots in program order (reorder buffer).
	RetireInOrder = machine.RetireInOrder
	// RetireAtComplete frees a window slot when its op completes.
	RetireAtComplete = machine.RetireAtComplete
)

// Partition policies for the decoupled machine.
type Policy = partition.Policy

const (
	// Classic places all integer computation on the AU (the paper's
	// machine).
	Classic = partition.Classic
	// SliceOnly places only the address slice on the AU.
	SliceOnly = partition.SliceOnly
	// Balance greedily balances non-slice integer ops.
	Balance = partition.Balance
)

// Traces and workloads.
type (
	// Trace is a machine-independent instruction trace.
	Trace = trace.Trace
	// WorkloadSpec describes one of the seven benchmark models.
	WorkloadSpec = workloads.Spec
	// KernelBuilder authors custom workload traces.
	KernelBuilder = kernel.Builder
	// Val is an SSA value handle produced by the kernel builder.
	Val = kernel.Val
	// Timing holds latency parameters (MD, FP latency, copy latency).
	Timing = isa.Timing
)

// NewSuite partitions tr under the given policy; each machine's
// program is lowered on its first run.
func NewSuite(tr *Trace, pol Policy) (*Suite, error) { return machine.NewSuite(tr, pol) }

// Workload builds a trace by name at the given scale (1 = the
// calibrated default size): one of the seven PERFECT-club-style
// kernels (TRFD, ADM, FLO52Q, DYFESM, QCD, MDG, TRACK), or a generated
// workload "spec:depth=8,ilp=4,..." (see GenSpec).
func Workload(name string, scale int) (*Trace, error) { return workloads.Build(name, scale) }

// Workloads lists the seven benchmark specs in the paper's Table 1 order.
func Workloads() []WorkloadSpec { return workloads.Catalog() }

// NewKernel returns a builder for authoring a custom workload trace.
func NewKernel(name string) *KernelBuilder { return kernel.New(name) }

// Generated workloads: any point in the knob space the study is
// sensitive to is a workload (DESIGN.md §14). A GenSpec parses from
// the "depth=8,ilp=4,mem=0.4,addr=gather,..." grammar, generates
// deterministically from its seed, and its Name (the canonical
// spelling under the "spec:" prefix) works wherever a workload name
// does — Workload, sweeps, the daemon, the cache.
type (
	// GenSpec parameterizes a generated workload: FP chain depth, lane
	// ILP, memory intensity, address-slice shape, DU→AU hazard rate.
	GenSpec = workgen.Spec
	// GenShape is a GenSpec's address-slice shape knob.
	GenShape = workgen.Shape
)

// Address-slice shapes for GenSpec.Addr.
const (
	// GenAffine computes addresses from the lane base alone.
	GenAffine = workgen.Affine
	// GenGather inserts an index load ahead of each data load.
	GenGather = workgen.Gather
	// GenChase makes each address depend on the previously loaded value.
	GenChase = workgen.Chase
	// GenMixed draws the shape per load from the coordinate hash.
	GenMixed = workgen.Mixed
)

// ParseGenSpec parses a generated-workload spec such as
// "depth=8,ilp=4,mem=0.4,addr=gather" (without the "spec:" name
// prefix); omitted knobs take defaults.
func ParseGenSpec(s string) (GenSpec, error) { return workgen.Parse(s) }

// SerialCycles is the serial-reference execution time used as the
// speedup baseline (see machine.SerialCycles).
func SerialCycles(tr *Trace, tm Timing) int64 { return machine.SerialCycles(tr, tm) }

// DefaultTiming returns the paper's latencies with the given memory
// differential.
func DefaultTiming(md int) Timing { return isa.DefaultTiming(md) }

// Sweeping and searching. A Runner executes simulation points against
// one suite, in parallel, memoizing results so overlapping sweeps do not
// re-simulate; EquivalentWindow, EquivalentWindowRatio and Crossover
// search through a Runner one probe at a time, so probes another sweep
// already ran cost nothing (fan independent searches out for
// parallelism). A Store adds a persistent on-disk layer behind a Runner's in-memory
// cache: results survive process restarts, keyed by engine version,
// suite source key (lowering version, trace and partition) and
// canonical parameters, so re-runs skip
// every point they have seen before (DESIGN.md §9), and Store.GC keeps
// it bounded (GCPolicy). A DaemonFleet serves the same sweeps from one
// or more long-lived sweepd processes instead of simulating locally
// (DESIGN.md §10-11).
type (
	// Runner is a parallel, memoizing simulation executor for one Suite.
	// Set Runner.Store to persist results across processes.
	Runner = sweep.Runner
	// Point identifies one simulation for a Runner or a DaemonFleet: a
	// machine kind plus parameters.
	Point = sweep.Point
	// Store is a persistent, corruption-tolerant on-disk result cache,
	// safe for concurrent processes: append-only segment files (one per
	// writing handle) behind an in-memory index of each key's latest
	// record, with every read checked against its key and checksum.
	// A handle holds an fd per segment; Close releases them.
	Store = sweep.Store
	// CacheStats counts where a Runner's results came from.
	CacheStats = sweep.CacheStats
	// StoreStats is a snapshot of a Store's traffic counters.
	StoreStats = sweep.StoreStats
	// GCPolicy bounds a Store for garbage collection (Store.GC): entry
	// count, total bytes, and age since last access; LRU entries are
	// evicted first and the survivors compacted into one segment. Zero
	// fields are unbounded.
	GCPolicy = sweep.GCPolicy
	// GCResult reports one Store.GC pass (entries scanned, evicted, kept).
	GCResult = sweep.GCResult
	// DaemonFleet routes simulations across one or more sweepd replicas
	// (cmd/sweepd; a single daemon is a one-replica fleet) by consistent
	// hashing of cache keys, with per-replica health checks and an
	// explicit failure ladder: ring-order failover with bounded,
	// deterministically-jittered backoff, per-replica circuit breakers
	// with probe-on-recovery, penalty-free rerouting off draining
	// replicas, and partial-batch returns that let a Degrade-enabled
	// Runner simulate unserved points locally. Every method takes a
	// context.Context that cancels the requests in flight. It routes
	// through Run (one point), RunBatch and RatioBatch: bind RunBatch
	// and RatioBatch to a context and attach them to
	// Experiments.RemoteBatch/RemoteSearch to shard a sweep across the
	// fleet with batched round trips (a single point travels as a
	// one-item batch) — repro -remote url1,url2,... is exactly that
	// wiring. Health checks every replica, and Clients() exposes the
	// per-replica transports for cache statistics and store GC. See
	// DESIGN.md §10, §11 and §13.
	DaemonFleet = daemon.FleetClient
	// FleetRing is the consistent-hash ring behind DaemonFleet: a pure
	// function of the replica address list, deterministic across
	// processes, remapping ~1/N of the keyspace per membership change.
	FleetRing = daemon.Ring
)

// NewRunner returns a memoizing Runner for the suite.
func NewRunner(s *Suite) *Runner { return sweep.NewRunner(s) }

// OpenStore opens (creating if needed) a persistent result cache rooted
// at dir. Attach it to a Runner (Runner.Store) or an experiment context
// (Experiments.Cache) before the first run.
func OpenStore(dir string) (*Store, error) { return sweep.OpenStore(dir) }

// ParseGCPolicy parses a comma-separated Store GC bound list, e.g.
// "max-entries=500,max-bytes=64mb,max-age=168h" (the syntax of
// repro -cache-gc and sweepd -gc). Omitted bounds are unlimited.
func ParseGCPolicy(spec string) (GCPolicy, error) { return sweep.ParseGCPolicy(spec) }

// NewDaemonFleet returns a client routing across the sweepd replicas at
// the given base URLs (e.g. "http://127.0.0.1:8077"; one URL for a
// single daemon). Every client of a fleet must list the same
// addresses (the URL strings are the ring identity).
func NewDaemonFleet(urls []string) (*DaemonFleet, error) { return daemon.NewFleetClient(urls) }

// NewFleetRing builds the consistent-hash ring over the member names —
// exposed for capacity planning and tests; DaemonFleet builds its own.
func NewFleetRing(members []string) *FleetRing { return daemon.NewRing(members) }

// Metrics.
var (
	// Speedup returns serial/actual.
	Speedup = metrics.Speedup
	// LHE returns the latency-hiding effectiveness T_perfect/T_actual.
	LHE = metrics.LHE
	// EquivalentWindow returns the smallest SWSM window matching a target
	// time, probing serially through the runner's cache.
	EquivalentWindow = metrics.EquivalentWindow
	// EquivalentWindowRatio runs the DM and reports the SWSM/DM window
	// ratio of Figures 7-9.
	EquivalentWindowRatio = metrics.EquivalentWindowRatio
	// Crossover finds the first window where the SWSM matches the DM.
	Crossover = metrics.Crossover
)

// Memory models for Params.Mem. The zero MemSpec is the paper's fixed
// differential behind a window-scaled outstanding-fill queue. A spec is a
// plain value, so its points cache and run remotely like any other; each
// run builds a fresh model and reports its hits in Result.MemHits (out
// of Result.Fills).
type (
	// MemSpec describes a memory model: none, a bypass buffer or a cache
	// hierarchy.
	MemSpec = memsys.Spec
	// CacheLevel configures one level of a cache hierarchy.
	CacheLevel = memsys.CacheLevel
)

// BypassSpec describes the paper's future-work bypass buffer: a
// line-grain LRU buffer of the given capacity that captures the temporal
// locality exposed by decoupling.
func BypassSpec(lines int) (MemSpec, error) { return memsys.BypassSpec(lines) }

// CacheSpec describes a multi-level LRU cache hierarchy ordered from L1
// outward; full misses pay MD.
func CacheSpec(levels ...CacheLevel) (MemSpec, error) { return memsys.CacheSpec(levels...) }

// DefaultCacheSpec describes the Pentium-Pro-flavoured two-level
// hierarchy used by the A7 study.
func DefaultCacheSpec() MemSpec { return memsys.DefaultCacheSpec() }

// Experiments: regenerate the paper's evaluation.
type (
	// Experiments caches workloads across experiment drivers.
	Experiments = experiments.Context
	// Table1Result is the reproduction of Table 1.
	Table1Result = experiments.Table1Result
	// FigureResult is the reproduction of one of Figures 4-6.
	FigureResult = experiments.FigureResult
	// RatioResult is the reproduction of one of Figures 7-9.
	RatioResult = experiments.RatioResult
)

// NewExperiments returns an experiment context at scale 1.
func NewExperiments() *Experiments { return experiments.NewContext() }

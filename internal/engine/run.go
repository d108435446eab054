package engine

import (
	"fmt"
	"sync"

	"daesim/internal/isa"
)

// MemModel abstracts the memory system seen by send/consume operations.
// The engine calls RequestFill when a send op completes (in nondecreasing
// cycle order) and Consume when the matching consume op issues. The
// paper's fixed-differential model is built in; locality-aware models
// live in internal/memsys.
type MemModel interface {
	// RequestFill reports when the fill for addr arrives, given that the
	// address reached the memory system at cycle sent. Must return a value
	// >= sent.
	RequestFill(addr uint64, sent int64) int64
	// Consume notifies the model that the buffered value for addr was
	// consumed at the given cycle.
	Consume(addr uint64, cycle int64)
	// Reset prepares the model for a fresh run.
	Reset()
}

// MemHitCounter is implemented by memory models that serve some fills
// without going to memory (a bypass buffer, a cache). After a run the
// engine records the count in Result.MemHits, so the hit rate travels
// with the result rather than with the model object.
type MemHitCounter interface {
	MemHits() int64
}

// memHits returns m's hit count, or 0 for a model that counts none.
func memHits(m MemModel) int64 {
	if hc, ok := m.(MemHitCounter); ok {
		return hc.MemHits()
	}
	return 0
}

// Config parameterizes one simulation run.
type Config struct {
	// Timing holds the latency parameters.
	Timing isa.Timing
	// Cores configures each core; its length must equal the program's
	// NumUnits.
	Cores []isa.CoreConfig
	// Mem is the memory model; nil selects the paper's fixed-differential
	// model (fill arrives Timing.MD cycles after the send completes).
	Mem MemModel
	// CollectESW enables effective-single-window and slippage statistics
	// (slightly more work per cycle).
	CollectESW bool
	// HoldSendSlots makes send operations occupy their window slot until
	// the fill returns instead of completing in one cycle. Fill timing is
	// unchanged; only window pressure differs. This removes the
	// fire-and-forget property that gives the decoupled machine its
	// slippage (ablation A3 in DESIGN.md).
	HoldSendSlots bool
	// RetireInOrder frees window slots in program order (reorder-buffer
	// style): a completed op's slot is reclaimed only once every older op
	// in the same core has completed. The default reclaims slots at
	// completion. In-order retirement models mid-90s RUU/ROB machines and
	// increases window pressure behind long-latency operations (ablation
	// A6 in DESIGN.md).
	RetireInOrder bool
}

// Validate reports configuration errors against the program.
func (c *Config) Validate(p *Program) error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if len(c.Cores) != p.NumUnits {
		return fmt.Errorf("engine: %d core configs for %d units", len(c.Cores), p.NumUnits)
	}
	for i, cc := range c.Cores {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("engine: core %d: %w", i, err)
		}
	}
	return nil
}

// CoreStats reports per-core execution statistics.
type CoreStats struct {
	// Issued is the number of operations issued.
	Issued int64
	// IssuedByKind breaks Issued down by operation kind.
	IssuedByKind [isa.NumOpKinds]int64
	// BusyCycles counts cycles in which the core issued at least one op.
	BusyCycles int64
	// IssueHist[k] counts busy cycles that issued exactly k ops
	// (k capped at the histogram length minus one).
	IssueHist []int64
	// OccIntegral is the time integral of window occupancy (slot-cycles).
	OccIntegral int64
	// MaxOcc is the peak window occupancy observed.
	MaxOcc int
}

// AvgOcc returns mean window occupancy over the run.
func (s *CoreStats) AvgOcc(cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(s.OccIntegral) / float64(cycles)
}

// Result reports the outcome of a run.
type Result struct {
	// Cycles is the total execution time.
	Cycles int64
	// Ops is the number of machine operations executed.
	Ops int
	// TraceLen is the originating trace length (architecture-neutral
	// instructions), for IPC computation.
	TraceLen int
	// Cores holds per-core statistics.
	Cores []CoreStats
	// MaxESW and AvgESW measure the effective single window: the span, in
	// trace instructions, from the oldest in-flight op to the youngest
	// dispatched op. Collected only when Config.CollectESW is set.
	MaxESW int64
	AvgESW float64
	// MaxSlip and AvgSlip measure AU run-ahead: the distance, in trace
	// instructions, between the AU and DU dispatch frontiers (two-unit
	// programs only).
	MaxSlip int64
	AvgSlip float64
	// Fills is the number of memory fills requested: with a memory
	// model, the number of RequestFill calls.
	Fills int64
	// MemHits is how many of the Fills the memory model served without
	// going to memory (MemHitCounter); zero without such a model.
	MemHits int64
	// MaxFillsInFlight is the peak number of outstanding fills.
	MaxFillsInFlight int
}

// Clone returns a deep copy of the result. Shared caches (sweep.Runner,
// sweep.Store) hold one canonical Result per point and hand clones to
// callers, so a caller scribbling on a returned Result cannot poison
// later hits.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := *r
	if r.Cores != nil {
		out.Cores = make([]CoreStats, len(r.Cores))
		copy(out.Cores, r.Cores)
		for i := range out.Cores {
			if h := r.Cores[i].IssueHist; h != nil {
				out.Cores[i].IssueHist = append([]int64(nil), h...)
			}
		}
	}
	return &out
}

// IPC returns trace instructions completed per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TraceLen) / float64(r.Cycles)
}

// OpsPerCycle returns machine operations issued per cycle.
func (r *Result) OpsPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Cycles)
}

// op lifecycle states
const (
	stWaiting  uint8 = iota // not yet dispatched
	stInWindow              // dispatched, not issued
	stIssued                // issued, completion pending
	stDone                  // completed
)

// simPool backs the compatibility Run wrapper so callers that do not
// manage a Sim themselves still reuse scratch state across runs.
var simPool = sync.Pool{New: func() any { return NewSim() }}

// Run executes the program under the configuration and returns
// statistics. Runs are deterministic: identical inputs produce identical
// results. Run draws a reusable Sim from a shared pool; callers running
// many simulations on dedicated goroutines should hold their own Sim
// (see NewSim) to skip the pool round-trip.
func Run(p *Program, cfg Config) (*Result, error) {
	s := simPool.Get().(*Sim)
	res, err := s.Run(p, cfg)
	simPool.Put(s)
	return res, err
}

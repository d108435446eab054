// Package machine assembles the engine, partitioner and lowerings into
// the paper's two machine models and the serial baseline used for
// speedup. A Suite lowers one trace's programs on first use and keeps
// them, so sweeps can run many configurations cheaply.
package machine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"daesim/internal/engine"
	"daesim/internal/isa"
	"daesim/internal/lower"
	"daesim/internal/memsys"
	"daesim/internal/partition"
	"daesim/internal/trace"
)

// Kind identifies a machine model.
type Kind uint8

const (
	// DM is the access decoupled machine.
	DM Kind = iota
	// SWSM is the single-window superscalar machine.
	SWSM
)

func (k Kind) String() string {
	switch k {
	case DM:
		return "DM"
	case SWSM:
		return "SWSM"
	default:
		return fmt.Sprintf("machine(%d)", uint8(k))
	}
}

// MarshalText writes the kind's name, its wire form.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a kind's name: "DM" or "SWSM".
func (k *Kind) UnmarshalText(text []byte) error {
	for _, c := range []Kind{DM, SWSM} {
		if string(text) == c.String() {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("machine: unknown machine kind %q (want DM or SWSM)", text)
}

// Params configures one simulation run. The zero value plus a Window is
// usable: all other fields default to the paper's configuration.
//
// Params is also its own wire form (sweepd's "params" object, DESIGN.md
// §10): each field's json tag names it on the wire, zero fields are
// omitted, and enum and memory-spec fields travel as their text names.
// daelint's schemaguard requires every field to carry a unique tag.
type Params struct {
	// Window is the instruction window size: per unit on the DM (AU and DU
	// each get Window slots), total on the SWSM. Zero or negative means
	// unlimited.
	Window int `json:"window,omitempty"`
	// MD is the memory differential in cycles.
	MD int `json:"md,omitempty"`
	// CopyLat overrides the default inter-unit copy latency when > 0.
	CopyLat int `json:"copy_lat,omitempty"`
	// AUWidth, DUWidth and Width override the issue widths when > 0
	// (defaults 4, 5 and 9).
	AUWidth int `json:"au_width,omitempty"`
	DUWidth int `json:"du_width,omitempty"`
	Width   int `json:"width,omitempty"`
	// MemQueue bounds the number of outstanding memory fills — the
	// capacity of the decoupled memory (DM) or prefetch buffer (SWSM),
	// which in the original machines were finite queues. Zero selects the
	// default QueueFactor×Window (unlimited when the window is unlimited);
	// Unbounded disables the limit; any positive value is used directly.
	MemQueue int `json:"mem_queue,omitempty"`
	// Mem selects a memory model — a bypass buffer or a cache hierarchy
	// whose full misses pay MD — and then overrides MemQueue. The zero
	// value keeps the fixed differential behind the MemQueue bound. Each
	// run builds a fresh model from the spec.
	Mem memsys.Spec `json:"mem,omitzero"`
	// CollectESW enables effective-single-window statistics.
	CollectESW bool `json:"collect_esw,omitempty"`
	// HoldSendSlots makes sends occupy window slots until their fill
	// returns (ablation A3: removes fire-and-forget slippage).
	HoldSendSlots bool `json:"hold_send_slots,omitempty"`
	// Retire selects the window-slot reclamation policy. The zero value,
	// RetireInOrder, is the machine default on both machines: the mid-90s
	// machines the paper abstracts reclaimed slots through reorder
	// buffers (SWSM) and per-unit FIFO queues (DM/PIPE/WM), and symmetric
	// accounting is what restores the paper's C2 large-window ordering
	// (EXPERIMENTS.md). RetireAtComplete forces the older
	// free-at-completion accounting (ablation A6).
	Retire RetirePolicy `json:"retire,omitempty"`
}

// RetirePolicy selects how window slots are reclaimed.
type RetirePolicy uint8

const (
	// RetireInOrder frees slots in program order (reorder-buffer style):
	// a completed op's slot is reclaimed only once every older op in the
	// same core has completed. It is the zero value.
	RetireInOrder RetirePolicy = iota
	// RetireAtComplete frees a slot as soon as its op completes.
	RetireAtComplete
)

func (r RetirePolicy) String() string {
	switch r {
	case RetireInOrder:
		return "in-order"
	case RetireAtComplete:
		return "at-complete"
	default:
		return fmt.Sprintf("retire(%d)", uint8(r))
	}
}

// MarshalText writes the policy's name, its wire form.
func (r RetirePolicy) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText reads a policy's name: "in-order" or "at-complete".
// The empty string is the zero value, as for the memory spec.
func (r *RetirePolicy) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*r = RetireInOrder
		return nil
	}
	for _, c := range []RetirePolicy{RetireInOrder, RetireAtComplete} {
		if string(text) == c.String() {
			*r = c
			return nil
		}
	}
	return fmt.Errorf("machine: unknown retire policy %q (want in-order or at-complete)", text)
}

// Unbounded disables the MemQueue outstanding-fill limit.
const Unbounded = -1

// QueueFactor scales the default decoupled-memory / prefetch-buffer
// capacity with the window size: a machine with W-slot windows gets a
// QueueFactor×W entry queue. The paper idealizes the buffers but the
// machines it abstracts (PIPE, WM) used finite queues; scaling with the
// window keeps small configurations from hiding latency through
// unbounded run-ahead.
const QueueFactor = 2

// queueModel builds the memory model implied by the parameters.
func (p Params) queueModel() (engine.MemModel, error) {
	if err := p.Mem.Validate(); err != nil {
		return nil, err
	}
	md := int64(p.Timing().MD)
	switch {
	case p.Mem.Kind == memsys.BypassModel:
		return memsys.NewBypass(md, p.Mem.Lines)
	case p.Mem.Kind == memsys.CacheModel:
		return memsys.NewHierarchy(md, p.Mem.CacheLevels()...)
	case p.MemQueue == Unbounded:
		return nil, nil
	case p.MemQueue > 0:
		return memsys.NewOutstanding(md, p.MemQueue)
	case p.MemQueue == 0:
		if p.Window <= 0 {
			return nil, nil // unlimited window: unlimited queue
		}
		return memsys.NewOutstanding(md, QueueFactor*min(p.Window, math.MaxInt/QueueFactor))
	default:
		return nil, fmt.Errorf("machine: invalid MemQueue %d", p.MemQueue)
	}
}

// Timing returns the isa.Timing with defaults applied.
func (p Params) Timing() isa.Timing {
	t := isa.DefaultTiming(p.MD)
	if p.CopyLat != 0 {
		t.CopyLat = p.CopyLat
	}
	return t
}

func (p Params) auWidth() int {
	if p.AUWidth > 0 {
		return p.AUWidth
	}
	return isa.DefaultAUWidth
}

func (p Params) duWidth() int {
	if p.DUWidth > 0 {
		return p.DUWidth
	}
	return isa.DefaultDUWidth
}

func (p Params) swsmWidth() int {
	if p.Width > 0 {
		return p.Width
	}
	return isa.DefaultSWSMWidth
}

// Suite is one trace under one partition policy, ready to run on both
// machines. NewSuite only partitions the trace; each machine's program
// is lowered on its first run, once, so a suite whose points are all
// served from a result store never walks the trace to lower it. Build
// once, run many configurations.
type Suite struct {
	// Trace is the source trace.
	Trace *trace.Trace

	asg *partition.Assignment
	// dm and swsm lower each program on first use. A repartitioned suite
	// shares swsm with the suite it came from.
	dm, swsm *lazyProgram

	// fingerprint memoization (see Fingerprint).
	fpOnce sync.Once
	fp     string
}

// lazyProgram is a program lowered on first use.
type lazyProgram struct {
	once sync.Once
	prog *engine.Program
	err  error
}

// get returns the program, lowering it with build on the first call.
func (l *lazyProgram) get(kind Kind, build func() (*engine.Program, error)) (*engine.Program, error) {
	l.once.Do(func() {
		lowerings[kind].Add(1)
		if l.prog, l.err = build(); l.err != nil {
			l.err = fmt.Errorf("machine: lowering %v: %w", kind, l.err)
		}
	})
	return l.prog, l.err
}

// lowerings counts the programs this process has lowered, per Kind.
var lowerings [2]atomic.Int64

// Lowerings returns how many DM and SWSM programs this process has
// lowered so far.
func Lowerings() (dm, swsm int64) {
	return lowerings[DM].Load(), lowerings[SWSM].Load()
}

// NewSuite partitions tr under the given policy. Neither program is
// lowered until a run needs it.
func NewSuite(tr *trace.Trace, pol partition.Policy) (*Suite, error) {
	asg, err := partition.Partition(tr, pol)
	if err != nil {
		return nil, fmt.Errorf("machine: partitioning: %w", err)
	}
	return &Suite{Trace: tr, asg: asg, dm: &lazyProgram{}, swsm: &lazyProgram{}}, nil
}

// Repartition returns the suite for the same trace under another
// partition policy; it equals NewSuite(s.Trace, pol) in Assignment and
// Fingerprint. It redoes only what the policy changes: the unit
// assignment and load routing (partition.Assign). The trace, its
// address slice and the SWSM program do not depend on the partition, so
// the new suite shares them with s: the SWSM program is lowered at most
// once for both (programs are read-only once built, and runners already
// share them across goroutines).
func (s *Suite) Repartition(pol partition.Policy) (*Suite, error) {
	asg, err := partition.Assign(s.Trace, s.asg.InAddrSlice, pol)
	if err != nil {
		return nil, fmt.Errorf("machine: partitioning: %w", err)
	}
	return &Suite{Trace: s.Trace, asg: asg, dm: &lazyProgram{}, swsm: s.swsm}, nil
}

// Assignment returns the AU/DU partition the DM program is lowered
// under. It is read-only.
func (s *Suite) Assignment() *partition.Assignment { return s.asg }

// Program returns the lowered program RunWith executes for kind,
// lowering it on the first call.
func (s *Suite) Program(kind Kind) (*engine.Program, error) {
	switch kind {
	case DM:
		return s.dm.get(DM, func() (*engine.Program, error) { return lower.DM(s.Trace, s.asg) })
	case SWSM:
		return s.swsm.get(SWSM, func() (*engine.Program, error) { return lower.SWSM(s.Trace) })
	default:
		return nil, fmt.Errorf("machine: unknown kind %v", kind)
	}
}

// Run executes the given machine kind under p, drawing a reusable
// engine scratch context from the shared pool.
func (s *Suite) Run(kind Kind, p Params) (*engine.Result, error) {
	return s.RunWith(nil, kind, p)
}

// RunWith executes the given machine kind under p on sim's reusable
// scratch. A nil sim draws from the engine's shared pool, which is what
// sweeps and searches use. A caller that times repeated runs on one
// goroutine (the engine benchmarks) can hold its own engine.Sim so they
// allocate nothing beyond the Results. The first run of a kind lowers
// its program; concurrent first runs wait for one lowering.
func (s *Suite) RunWith(sim *engine.Sim, kind Kind, p Params) (*engine.Result, error) {
	prog, err := s.Program(kind)
	if err != nil {
		return nil, err
	}
	cfg, err := p.Config(kind)
	if err != nil {
		return nil, err
	}
	if sim == nil {
		return engine.Run(prog, cfg)
	}
	return sim.Run(prog, cfg)
}

// LowerBound returns a certified lower bound on the Cycles of
// Run(kind, p) — engine.Sim.LowerBound of kind's program under p's
// configuration — or 0 where there is none (the DM, ESW sampling, the
// bypass buffer and cache models). Like Run, it lowers the SWSM program
// on first use.
func (s *Suite) LowerBound(kind Kind, p Params) (int64, error) {
	if kind == DM {
		return 0, nil // two units: no bound, so nothing to lower
	}
	prog, err := s.Program(kind)
	if err != nil {
		return 0, err
	}
	cfg, err := p.Config(kind)
	if err != nil {
		return 0, err
	}
	return prog.LowerBound(cfg), nil
}

// Config materializes the engine configuration p implies for a machine
// kind — exactly what Run hands the engine. Only the cores differ by
// kind: the DM's AU and DU, or the SWSM's single window. Exported for
// differential harnesses (FuzzWorkgenDifferential) that replay the same
// setup through engine.ReferenceRun; each call constructs a fresh
// memory model, so two configs never share queue state.
func (p Params) Config(kind Kind) (engine.Config, error) {
	var cores []isa.CoreConfig
	switch kind {
	case DM:
		cores = []isa.CoreConfig{
			{Window: p.Window, IssueWidth: p.auWidth()},
			{Window: p.Window, IssueWidth: p.duWidth()},
		}
	case SWSM:
		cores = []isa.CoreConfig{
			{Window: p.Window, IssueWidth: p.swsmWidth()},
		}
	default:
		return engine.Config{}, fmt.Errorf("machine: unknown kind %v", kind)
	}
	mem, err := p.queueModel()
	if err != nil {
		return engine.Config{}, err
	}
	return engine.Config{
		Timing:        p.Timing(),
		Cores:         cores,
		Mem:           mem,
		CollectESW:    p.CollectESW,
		HoldSendSlots: p.HoldSendSlots,
		RetireInOrder: p.Retire == RetireInOrder,
	}, nil
}

// RunDM executes the decoupled machine under p.
func (s *Suite) RunDM(p Params) (*engine.Result, error) { return s.RunWith(nil, DM, p) }

// RunSWSM executes the superscalar machine under p.
func (s *Suite) RunSWSM(p Params) (*engine.Result, error) { return s.RunWith(nil, SWSM, p) }

// SerialCycles returns the execution time of tr on the serial reference
// machine used as the speedup baseline: a single-issue, non-overlapping
// processor where every instruction completes before the next begins.
// Integer ops cost 1 cycle, FP ops FPLat, loads MD+1 (the differential
// plus the access cycle) and stores 1 (retired through a store buffer).
func SerialCycles(tr *trace.Trace, tm isa.Timing) int64 {
	n := tr.Stats().ByClass
	return int64(n[isa.IntALU]+n[isa.Store]) + int64(tm.FPLat)*int64(n[isa.FPALU]) + (int64(tm.MD)+1)*int64(n[isa.Load])
}

// PerfectCycles returns the execution time of the machine with perfect
// latency hiding: the same machine with MD forced to zero, so every
// memory access perceives a single-cycle (buffer-request) latency. This
// is the T_perfect of the paper's LHE definition.
func (s *Suite) PerfectCycles(kind Kind, p Params) (int64, error) {
	p.MD = 0
	r, err := s.Run(kind, p)
	if err != nil {
		return 0, err
	}
	return r.Cycles, nil
}

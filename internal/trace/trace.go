// Package trace represents machine-independent instruction traces.
//
// A trace is the paper's idealized program: a program-ordered stream of
// instructions whose only constraints are true data dependencies (perfect
// renaming removes false dependencies, and loop-closing branches are
// assumed removed by unrolling). Each instruction names the earlier
// instructions that produce its operands, split into address operands and
// value operands so that the AU/DU partitioner can compute address slices.
//
// Loads and stores additionally carry a synthetic byte address, used only
// by the optional locality-aware memory models (bypass buffer, finite
// prefetch buffer); the paper's fixed-differential model ignores it.
package trace

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sync"

	"daesim/internal/isa"
)

// None marks an absent operand reference (a constant, kernel.Val.Index).
// It never appears in a valid trace.
const None int32 = -1

// Instr is one instruction as a value: the form tests author (New) and
// At returns. Operand references are indices of earlier instructions in
// the same trace; an instruction's "value" is the result it produces
// (loads produce the loaded value; stores produce none).
type Instr struct {
	// Class is the instruction class.
	Class isa.Class
	// Addr lists producers feeding the memory address (Load/Store only).
	Addr []int32
	// Args lists producers feeding value operands: ALU/FP inputs, or the
	// store data operand.
	Args []int32
	// MemAddr is the synthetic byte address touched by a Load/Store.
	MemAddr uint64
}

// Trace is an immutable program-ordered instruction stream, held as
// slabs that only Builder writes: a class and a memory address per
// instruction, and every instruction's operand references in one shared
// array indexed by per-instruction offsets (CSR). An instruction's
// references are its address operands, then its value operands; its
// class says which are which (all of a load's are address operands, a
// store's last is its data, all of an ALU op's are value operands).
type Trace struct {
	// Name identifies the workload that produced the trace.
	Name string

	class   []isa.Class
	memAddr []uint64 // the synthetic byte address of a Load/Store
	off     []int32  // instruction i's references are ops[off[i]:off[i+1]]
	ops     []int32

	//daelint:unkeyed memo of Digest, which hashes the slabs above
	digestOnce sync.Once
	//daelint:unkeyed memo of Digest, which hashes the slabs above
	digest [sha256.Size]byte
}

// Len returns the number of instructions.
func (t *Trace) Len() int { return len(t.class) }

// Class returns instruction i's class.
func (t *Trace) Class(i int) isa.Class { return t.class[i] }

// MemAddr returns the synthetic byte address instruction i touches (0
// for non-memory instructions).
func (t *Trace) MemAddr(i int) uint64 { return t.memAddr[i] }

// Operands returns instruction i's operand references, address operands
// first. Each names an earlier instruction (Validate rejects None).
func (t *Trace) Operands(i int) []int32 { return t.refs(t.off[i], t.off[i+1]) }

// Addr returns instruction i's address operands: all of a load's, all
// but a store's last, none of an ALU op's.
func (t *Trace) Addr(i int) []int32 { return t.refs(t.off[i], t.split(i)) }

// Args returns instruction i's value operands: an ALU op's inputs or a
// store's data.
func (t *Trace) Args(i int) []int32 { return t.refs(t.split(i), t.off[i+1]) }

// split returns where instruction i's value operands start in ops.
func (t *Trace) split(i int) int32 {
	switch t.class[i] {
	case isa.Load:
		return t.off[i+1]
	case isa.Store:
		return t.off[i+1] - 1
	}
	return t.off[i]
}

// refs returns ops[lo:hi], capped so that an append copies, or nil.
func (t *Trace) refs(lo, hi int32) []int32 {
	if lo == hi {
		return nil
	}
	return t.ops[lo:hi:hi]
}

// At returns instruction i as an Instr whose operand lists alias the
// trace's slabs.
func (t *Trace) At(i int) Instr {
	return Instr{Class: t.class[i], Addr: t.Addr(i), Args: t.Args(i), MemAddr: t.memAddr[i]}
}

// minSlab is the capacity a Builder slab starts at; each doubles when
// full, so a trace of n instructions costs O(log n) allocations.
const minSlab = 1024

// Builder writes a trace's instructions straight into its slabs: Ref
// appends one operand reference of the instruction being built, Emit
// closes it. Trace hands out the slabs without copying them, and the
// builder stays usable: it only ever appends, so a trace it returned
// never sees what it emits later.
type Builder struct {
	name    string
	class   []isa.Class
	memAddr []uint64
	off     []int32
	ops     []int32
}

// NewBuilder returns an empty builder for a trace with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, off: make([]int32, 1, minSlab)}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.class) }

// Ref appends reference p to the operands of the next instruction,
// address operands first; a store's last reference is its data.
func (b *Builder) Ref(p int32) { b.ops = push(b.ops, p) }

// Emit closes the next instruction with class c and memory address mem
// over the references given since the last Emit, and returns its index.
func (b *Builder) Emit(c isa.Class, mem uint64) int32 {
	b.class = push(b.class, c)
	b.memAddr = push(b.memAddr, mem)
	b.off = push(b.off, int32(len(b.ops)))
	return int32(len(b.class) - 1)
}

func push[E any](s []E, v E) []E {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(cap(s), minSlab))
	}
	return append(s, v)
}

// Trace validates the instructions emitted so far and returns them as a
// trace that shares the builder's slabs.
func (b *Builder) Trace() (*Trace, error) {
	n, m := len(b.class), b.off[len(b.class)]
	t := &Trace{Name: b.name, class: b.class[:n:n], memAddr: b.memAddr[:n:n], off: b.off[: n+1 : n+1], ops: b.ops[:m:m]}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// New builds a trace from authored instructions, refusing one whose
// operand lists split otherwise than its class implies (the only split
// a Trace holds) with the error Validate would give.
func New(name string, instrs ...Instr) (*Trace, error) {
	b := NewBuilder(name)
	for i, in := range instrs {
		switch {
		case !in.Class.Valid(): // Validate reports it
		case in.Class != isa.Load && in.Class != isa.Store && len(in.Addr) != 0:
			return nil, fmt.Errorf("trace %s: instr %d (%v): address operands on non-memory instruction", name, i, in.Class)
		case in.Class == isa.Load && len(in.Args) != 0:
			return nil, fmt.Errorf("trace %s: instr %d: load has value operands", name, i)
		case in.Class == isa.Store && len(in.Args) != 1:
			return nil, fmt.Errorf("trace %s: instr %d: store needs exactly one data operand, has %d", name, i, len(in.Args))
		}
		for _, refs := range [2][]int32{in.Addr, in.Args} {
			for _, p := range refs {
				b.Ref(p)
			}
		}
		b.Emit(in.Class, in.MemAddr)
	}
	return b.Trace()
}

// Validate checks structural well-formedness: classes are defined, a
// store has its data operand, and every operand reference points
// strictly backwards at a value-producing instruction.
func (t *Trace) Validate() error {
	for i, c := range t.class {
		if !c.Valid() {
			return fmt.Errorf("trace %s: instr %d: invalid class %d", t.Name, i, c)
		}
		ops := t.Operands(i)
		if c == isa.Store && len(ops) == 0 {
			return fmt.Errorf("trace %s: instr %d: store needs exactly one data operand, has 0", t.Name, i)
		}
		for _, p := range ops {
			if p < 0 || p >= int32(i) {
				return fmt.Errorf("trace %s: instr %d: operand %d does not point strictly backwards", t.Name, i, p)
			} else if t.class[p] == isa.Store {
				return fmt.Errorf("trace %s: instr %d: operand %d is a store (stores produce no value)", t.Name, i, p)
			}
		}
	}
	return nil
}

// Stats summarizes the composition of a trace.
type Stats struct {
	Total    int
	ByClass  [isa.NumClasses]int
	MemRefs  int     // loads + stores
	MemFrac  float64 // MemRefs / Total
	AvgInDeg float64 // mean operand count
}

// Stats computes composition statistics.
func (t *Trace) Stats() Stats {
	s := Stats{Total: t.Len()}
	for _, c := range t.class {
		s.ByClass[c]++
	}
	s.MemRefs = s.ByClass[isa.Load] + s.ByClass[isa.Store]
	if s.Total > 0 {
		s.MemFrac = float64(s.MemRefs) / float64(s.Total)
		s.AvgInDeg = float64(len(t.ops)) / float64(s.Total)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("total=%d int=%d fp=%d load=%d store=%d mem%%=%.1f deg=%.2f",
		s.Total, s.ByClass[isa.IntALU], s.ByClass[isa.FPALU],
		s.ByClass[isa.Load], s.ByClass[isa.Store], 100*s.MemFrac, s.AvgInDeg)
}

// CriticalPath returns the dataflow-limit execution time of the trace in
// cycles under the given timing: the longest dependence chain where int
// ops cost 1, FP ops cost FPLat, and a load costs MD+2 from address-ready
// to value-ready (send cycle + differential + buffer request), matching
// the machine models with infinite resources. Stores cost one cycle and
// terminate chains.
func (t *Trace) CriticalPath(tm isa.Timing) int64 {
	if t.Len() == 0 {
		return 0
	}
	done := make([]int64, t.Len())
	var max int64
	for i, c := range t.class {
		var ready int64
		for _, p := range t.Operands(i) {
			if done[p] > ready {
				ready = done[p]
			}
		}
		var lat int64
		switch c {
		case isa.IntALU, isa.Store:
			lat = 1
		case isa.FPALU:
			lat = int64(tm.FPLat)
		case isa.Load:
			lat = int64(tm.MD) + 2
		}
		done[i] = ready + lat
		if done[i] > max {
			max = done[i]
		}
	}
	return max
}

// ILPProfile returns, for each dataflow level (unit-latency depth), the
// number of instructions at that level. It is a resource-free measure of
// the parallelism available in the trace.
func (t *Trace) ILPProfile() []int {
	depth := make([]int32, t.Len())
	var maxd int32
	for i := range depth {
		var d int32
		for _, p := range t.Operands(i) {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[i] = d
		if d > maxd {
			maxd = d
		}
	}
	prof := make([]int, maxd+1)
	for _, d := range depth {
		prof[d]++
	}
	return prof
}

// MeanILP returns the mean instructions per dataflow level: trace length
// divided by the number of levels.
func (t *Trace) MeanILP() float64 {
	if t.Len() == 0 {
		return 0
	}
	return float64(t.Len()) / float64(len(t.ILPProfile()))
}

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
	"sync"

	"daesim/internal/isa"
)

// None marks an absent operand reference (a constant, kernel.Val.Index).
// It never appears in a valid trace.
const None int32 = -1

// Instr is one instruction of a trace. Operand references are indices of
// earlier instructions in the same trace; an instruction's "value" is the
// result it produces (loads produce the loaded value; stores produce none).
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

// Operands calls fn for every operand reference of in, address operands
// first. A valid trace holds no None entries (Validate rejects them), so
// every reference names an earlier instruction.
func (in *Instr) Operands(fn func(int32)) {
	for _, a := range in.Addr {
		fn(a)
	}
	for _, a := range in.Args {
		fn(a)
	}
}

// Trace is an immutable program-ordered instruction stream.
type Trace struct {
	// Name identifies the workload that produced the trace.
	Name string
	// Instrs is the instruction stream in program order.
	Instrs []Instr

	// Digest memoization.
	digestOnce sync.Once
	digest     [sha256.Size]byte
}

// Len returns the number of instructions.
func (t *Trace) Len() int { return len(t.Instrs) }

// Validate checks structural well-formedness: classes are defined, every
// operand reference points strictly backwards, address operands appear
// only on memory instructions, and store data is a single operand.
func (t *Trace) Validate() error {
	for i := range t.Instrs {
		in := &t.Instrs[i]
		if !in.Class.Valid() {
			return fmt.Errorf("trace %s: instr %d: invalid class %d", t.Name, i, in.Class)
		}
		isMem := in.Class == isa.Load || in.Class == isa.Store
		if !isMem && len(in.Addr) != 0 {
			return fmt.Errorf("trace %s: instr %d (%v): address operands on non-memory instruction", t.Name, i, in.Class)
		}
		if in.Class == isa.Load && len(in.Args) != 0 {
			return fmt.Errorf("trace %s: instr %d: load has value operands", t.Name, i)
		}
		if in.Class == isa.Store && len(in.Args) != 1 {
			return fmt.Errorf("trace %s: instr %d: store needs exactly one data operand, has %d", t.Name, i, len(in.Args))
		}
		bad := int32(-2)
		in.Operands(func(p int32) {
			if p < 0 || p >= int32(i) {
				bad = p
			}
		})
		if bad != -2 {
			return fmt.Errorf("trace %s: instr %d: operand %d does not point strictly backwards", t.Name, i, bad)
		}
		var badProducer int32 = -2
		in.Operands(func(p int32) {
			if t.Instrs[p].Class == isa.Store {
				badProducer = p
			}
		})
		if badProducer != -2 {
			return fmt.Errorf("trace %s: instr %d: operand %d is a store (stores produce no value)", t.Name, i, badProducer)
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
	var s Stats
	s.Total = len(t.Instrs)
	deg := 0
	for i := range t.Instrs {
		in := &t.Instrs[i]
		s.ByClass[in.Class]++
		in.Operands(func(int32) { deg++ })
	}
	s.MemRefs = s.ByClass[isa.Load] + s.ByClass[isa.Store]
	if s.Total > 0 {
		s.MemFrac = float64(s.MemRefs) / float64(s.Total)
		s.AvgInDeg = float64(deg) / float64(s.Total)
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
	if len(t.Instrs) == 0 {
		return 0
	}
	done := make([]int64, len(t.Instrs))
	var max int64
	for i := range t.Instrs {
		in := &t.Instrs[i]
		var ready int64
		in.Operands(func(p int32) {
			if done[p] > ready {
				ready = done[p]
			}
		})
		var lat int64
		switch in.Class {
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
	depth := make([]int32, len(t.Instrs))
	var maxd int32
	for i := range t.Instrs {
		in := &t.Instrs[i]
		var d int32
		in.Operands(func(p int32) {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		})
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
	if len(t.Instrs) == 0 {
		return 0
	}
	return float64(len(t.Instrs)) / float64(len(t.ILPProfile()))
}

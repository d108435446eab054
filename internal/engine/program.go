// Package engine simulates out-of-order instruction windows. It executes
// machine programs (streams of unit-bound operations with true-dependence
// and memory-fill edges) under the paper's idealized timing model:
// in-order dispatch into a bounded window, oldest-first issue of up to
// IssueWidth ready operations per cycle per core, fixed operation
// latencies, and memory fills that arrive a configurable number of cycles
// after the address is sent.
package engine

import (
	"fmt"
	"sync"

	"daesim/internal/isa"
)

// NoDep marks an absent dependence reference in an Op.
const NoDep int32 = -1

// Program.flags bits.
const (
	opFlagSend     uint8 = 1 << iota // dispatches an address to memory
	opFlagConsume                    // waits on a memory fill
	opFlagFillCons                   // has fill-edge consumers
)

// Op is one machine operation. Operations appear in a Program in global
// program order; each is bound to one core (unit) and dispatches in order
// within that core's stream.
//
// Op is the authoring format only: ProgramBuilder.Add writes each op's
// fields straight into a Program's structure-of-arrays slabs, and
// Program.Ops rebuilds the ops from them for the reference oracles.
type Op struct {
	// Kind selects latency and memory behaviour.
	Kind isa.OpKind
	// Unit is the core that executes the op.
	Unit isa.Unit
	// Srcs are true-dependence producers: this op becomes ready only after
	// each producer completes.
	Srcs []int32
	// MemSrc, for consume ops (LoadRecv/Access), is the matching send op;
	// the edge delay is the memory fill time rather than the producer
	// latency.
	MemSrc int32
	// Addr is the byte address for memory ops (sends and consumes); used
	// only by locality-aware memory models.
	Addr uint64
	// Orig is the index of the originating trace instruction, used for
	// effective-single-window and slippage measurement.
	Orig int32
}

// Program is an immutable lowered program plus precomputed dependence
// structure. Build one with a ProgramBuilder (or NewProgram) and reuse
// it across many Run calls.
//
// The op stream is stored as structure-of-arrays only: the per-op
// scalars (kind, unit, orig, addr, memSrc) live in dense parallel
// arrays, and the variable-length adjacency (dependence sources,
// completion-edge and fill-edge consumers, per-unit streams) is
// CSR-flattened into offset+data slab pairs. An issue touches a few
// contiguous cache lines instead of striding across 56-byte Op records.
type Program struct {
	// Name identifies the program (workload + machine lowering).
	Name string
	// NumUnits is the number of cores the ops reference (1 or 2).
	NumUnits int
	// TraceLen is the length of the originating trace (for IPC reporting).
	TraceLen int

	// SoA scalar slabs, indexed by op.
	kinds []isa.OpKind
	units []uint8
	origs []int32
	addrs []uint64
	// flags packs the per-op predicates the issue loop branches on
	// (send/consume/has-fill-consumers) into one byte.
	flags []uint8

	// CSR slabs: xxxOff has len(ops)+1 entries; the data for op i is
	// xxxDat[xxxOff[i]:xxxOff[i+1]].
	srcOff []int32 // true-dependence producers (Srcs)
	srcDat []int32
	cpOff  []int32 // completion-edge consumers
	cpDat  []int32
	cfOff  []int32 // fill-edge consumers (sends only)
	cfDat  []int32

	memSrcs []int32 // matching send per consume op (NoDep otherwise)
	nDeps   []int32 // static dependence count per op

	// Per-unit op streams, CSR over units; posInStream[i] is op i's
	// position within its unit's stream (the ready-bitmap index).
	streamOff   []int32
	streamDat   []int32
	posInStream []int32

	// per is the structural period the steady-state skip uses, found on
	// the first run that asks (orbit.go).
	perOnce sync.Once
	per     period
	// reach is the longest dependence edge anywhere in the program,
	// found on the first lower bound that asks (lowerbound.go).
	reachOnce sync.Once
	reach     int32
	// split records whether the program is decoupled, found on the
	// first run that asks (split.go).
	split splitInfo
}

// ProgramBuilder builds a Program one op at a time: Add writes each
// op's kind, unit, orig, addr, memSrc and sources into the program's
// primary slabs, and Program validates them and derives the rest.
type ProgramBuilder struct {
	p *Program
}

// NewProgramBuilder returns a builder whose per-op slabs hold n ops
// without growing. The source slab starts with room for n sources, about
// what a lowering emits (0.9-1.3 per op over the catalog), and grows by
// append past that.
func NewProgramBuilder(n int) *ProgramBuilder {
	return &ProgramBuilder{p: &Program{
		kinds:   make([]isa.OpKind, 0, n),
		units:   make([]uint8, 0, n),
		origs:   make([]int32, 0, n),
		addrs:   make([]uint64, 0, n),
		memSrcs: make([]int32, 0, n),
		srcOff:  make([]int32, 1, n+1),
		srcDat:  make([]int32, 0, n),
	}}
}

// Add appends op, copying its Srcs into the program's source slab.
func (b *ProgramBuilder) Add(op Op) {
	p := b.p
	p.kinds = append(p.kinds, op.Kind)
	p.units = append(p.units, uint8(op.Unit))
	p.origs = append(p.origs, op.Orig)
	p.addrs = append(p.addrs, op.Addr)
	p.memSrcs = append(p.memSrcs, op.MemSrc)
	p.srcDat = append(p.srcDat, op.Srcs...)
	p.srcOff = append(p.srcOff, int32(len(p.srcDat)))
}

// Program validates the added ops and returns the program with its
// consumer, stream, dependence-count and flag slabs derived. The
// builder must not be used afterwards.
func (b *ProgramBuilder) Program(name string, numUnits, traceLen int) (*Program, error) {
	p := b.p
	b.p = nil
	if numUnits < 1 {
		return nil, fmt.Errorf("engine: program %s: numUnits %d < 1", name, numUnits)
	}
	p.Name, p.NumUnits, p.TraceLen = name, numUnits, traceLen
	n := len(p.kinds)
	p.flags = make([]uint8, n)
	p.nDeps = make([]int32, n)
	p.posInStream = make([]int32, n)
	p.cpOff = make([]int32, n+1)
	p.cfOff = make([]int32, n+1)
	p.streamOff = make([]int32, numUnits+1)

	// Pass 1: validate and count edges; offsets temporarily hold counts
	// shifted one slot right so the prefix sum turns them into offsets.
	for i := 0; i < n; i++ {
		k := p.kinds[i]
		if !k.Valid() {
			return nil, fmt.Errorf("engine: program %s: op %d: invalid kind %d", name, i, k)
		}
		if int(p.units[i]) >= numUnits {
			return nil, fmt.Errorf("engine: program %s: op %d: unit %v out of range (%d units)", name, i, isa.Unit(p.units[i]), numUnits)
		}
		for _, s := range p.srcs(int32(i)) {
			if s < 0 || s >= int32(i) {
				return nil, fmt.Errorf("engine: program %s: op %d: src %d not strictly backwards", name, i, s)
			}
			p.cpOff[s+1]++
		}
		p.nDeps[i] = p.srcOff[i+1] - p.srcOff[i]
		m := p.memSrcs[i]
		switch {
		case k.IsConsume():
			if m < 0 || m >= int32(i) {
				return nil, fmt.Errorf("engine: program %s: op %d: consume without valid MemSrc", name, i)
			}
			if !p.kinds[m].IsSend() {
				return nil, fmt.Errorf("engine: program %s: op %d: MemSrc %d is %v, not a send", name, i, m, p.kinds[m])
			}
			p.cfOff[m+1]++
			p.nDeps[i]++
		case m != NoDep:
			return nil, fmt.Errorf("engine: program %s: op %d: MemSrc on non-consume op %v", name, i, k)
		}
		p.streamOff[int(p.units[i])+1]++
	}
	for i := 0; i < n; i++ {
		p.cpOff[i+1] += p.cpOff[i]
		p.cfOff[i+1] += p.cfOff[i]
	}
	for u := 0; u < numUnits; u++ {
		p.streamOff[u+1] += p.streamOff[u]
	}
	p.cpDat = make([]int32, p.cpOff[n])
	p.cfDat = make([]int32, p.cfOff[n])
	p.streamDat = make([]int32, n)

	// Pass 2: fill the consumer and stream slabs, each list in ascending
	// op order; fill cursors reuse scratch counters.
	cpNext := make([]int32, n)
	cfNext := make([]int32, n)
	streamNext := make([]int32, numUnits)
	copy(cpNext, p.cpOff[:n])
	copy(cfNext, p.cfOff[:n])
	copy(streamNext, p.streamOff[:numUnits])
	for i := int32(0); i < int32(n); i++ {
		for _, s := range p.srcs(i) {
			p.cpDat[cpNext[s]] = i
			cpNext[s]++
		}
		if k := p.kinds[i]; k.IsConsume() {
			m := p.memSrcs[i]
			p.cfDat[cfNext[m]] = i
			cfNext[m]++
		}
		u := p.units[i]
		p.posInStream[i] = streamNext[u] - p.streamOff[u]
		p.streamDat[streamNext[u]] = i
		streamNext[u]++
	}
	for i := 0; i < n; i++ {
		var f uint8
		if p.kinds[i].IsSend() {
			f |= opFlagSend
		}
		if p.kinds[i].IsConsume() {
			f |= opFlagConsume
		}
		if p.cfOff[i+1] > p.cfOff[i] {
			f |= opFlagFillCons
		}
		p.flags[i] = f
	}
	return p, nil
}

// NewProgram validates ops and builds their program.
func NewProgram(name string, ops []Op, numUnits, traceLen int) (*Program, error) {
	b := NewProgramBuilder(len(ops))
	for _, op := range ops {
		b.Add(op)
	}
	return b.Program(name, numUnits, traceLen)
}

// MustProgram is NewProgram but panics on error.
func MustProgram(name string, ops []Op, numUnits, traceLen int) *Program {
	p, err := NewProgram(name, ops, numUnits, traceLen)
	if err != nil {
		panic(err)
	}
	return p
}

// Ops rebuilds the program's ops in the authoring format from its
// slabs, for the reference oracles. Each op's Srcs is a capacity-capped
// view of the program's source slab: read it, never write it.
func (p *Program) Ops() []Op {
	ops := make([]Op, len(p.kinds))
	for i := range ops {
		lo, hi := p.srcOff[i], p.srcOff[i+1]
		ops[i] = Op{
			Kind: p.kinds[i], Unit: isa.Unit(p.units[i]),
			Srcs:   p.srcDat[lo:hi:hi],
			MemSrc: p.memSrcs[i], Addr: p.addrs[i], Orig: p.origs[i],
		}
	}
	return ops
}

// Len returns the number of machine operations.
func (p *Program) Len() int { return len(p.kinds) }

// Stream returns the op indices executed by the given unit, program order.
//
//daelint:hotpath
func (p *Program) Stream(u isa.Unit) []int32 {
	return p.streamDat[p.streamOff[u]:p.streamOff[u+1]]
}

// srcs returns op i's true-dependence producers.
//
//daelint:hotpath
func (p *Program) srcs(i int32) []int32 { return p.srcDat[p.srcOff[i]:p.srcOff[i+1]] }

// plainConsumers returns the ops woken by op i's completion.
//
//daelint:hotpath
func (p *Program) plainConsumers(i int32) []int32 { return p.cpDat[p.cpOff[i]:p.cpOff[i+1]] }

// fillConsumers returns the ops woken by send op i's fill arrival.
//
//daelint:hotpath
func (p *Program) fillConsumers(i int32) []int32 { return p.cfDat[p.cfOff[i]:p.cfOff[i+1]] }

// KindCounts returns the number of ops of each kind.
func (p *Program) KindCounts() [isa.NumOpKinds]int {
	var c [isa.NumOpKinds]int
	for _, k := range p.kinds {
		c[k]++
	}
	return c
}

// DataflowTime returns the resource-free execution time of the program:
// the longest dependence path with the given timing and the fixed-
// differential memory model. The engine must reach exactly this time when
// windows and widths are unlimited; tests rely on that.
func (p *Program) DataflowTime(tm isa.Timing) int64 {
	n := len(p.kinds)
	done := make([]int64, n)
	fill := make([]int64, n)
	var max int64
	for i := 0; i < n; i++ {
		var ready int64
		for _, s := range p.srcs(int32(i)) {
			if done[s] > ready {
				ready = done[s]
			}
		}
		k := p.kinds[i]
		if k.IsConsume() {
			if f := fill[p.memSrcs[i]]; f > ready {
				ready = f
			}
		}
		done[i] = ready + int64(tm.Latency(k))
		if k.IsSend() {
			fill[i] = done[i] + int64(tm.MD)
		}
		if done[i] > max {
			max = done[i]
		}
	}
	return max
}

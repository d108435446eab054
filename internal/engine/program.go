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
// Op is the authoring format only: NewProgram repacks the op stream into
// structure-of-arrays slabs (see Program) and the simulator never touches
// the Op structs again, so lowerings are free to build them incrementally
// with per-op Srcs slices.
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
// structure. Build one with NewProgram and reuse it across many Run calls.
//
// Internally the op stream is repacked as structure-of-arrays: the hot
// per-op scalars (kind, unit, orig, addr) live in dense parallel arrays,
// and the variable-length adjacency (dependence sources, completion-edge
// and fill-edge consumers, per-unit streams) is CSR-flattened into
// offset+data slab pairs. The simulator's inner loops read only these
// slabs, never the Op structs, so an issue touches a few contiguous
// cache lines instead of striding across 64-byte Op records whose cold
// fields (Srcs headers, MemSrc) pollute the cache.
type Program struct {
	// Name identifies the program (workload + machine lowering).
	Name string
	// Ops is the operation stream in global program order (authoring
	// format; the simulator reads the SoA slabs below instead).
	Ops []Op
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

// NewProgram validates ops and precomputes the SoA dependence structure.
func NewProgram(name string, ops []Op, numUnits, traceLen int) (*Program, error) {
	if numUnits < 1 {
		return nil, fmt.Errorf("engine: program %s: numUnits %d < 1", name, numUnits)
	}
	n := len(ops)
	p := &Program{Name: name, Ops: ops, NumUnits: numUnits, TraceLen: traceLen}
	p.kinds = make([]isa.OpKind, n)
	p.units = make([]uint8, n)
	p.flags = make([]uint8, n)
	p.origs = make([]int32, n)
	p.addrs = make([]uint64, n)
	p.memSrcs = make([]int32, n)
	p.nDeps = make([]int32, n)
	p.posInStream = make([]int32, n)
	p.srcOff = make([]int32, n+1)
	p.cpOff = make([]int32, n+1)
	p.cfOff = make([]int32, n+1)
	p.streamOff = make([]int32, numUnits+1)

	// Pass 1: validate and count edges; offsets temporarily hold counts
	// shifted one slot right so the prefix sum turns them into offsets.
	nSrcs := 0
	for i := range ops {
		op := &ops[i]
		if !op.Kind.Valid() {
			return nil, fmt.Errorf("engine: program %s: op %d: invalid kind %d", name, i, op.Kind)
		}
		if int(op.Unit) >= numUnits {
			return nil, fmt.Errorf("engine: program %s: op %d: unit %v out of range (%d units)", name, i, op.Unit, numUnits)
		}
		for _, s := range op.Srcs {
			if s < 0 || s >= int32(i) {
				return nil, fmt.Errorf("engine: program %s: op %d: src %d not strictly backwards", name, i, s)
			}
			p.cpOff[s+1]++
			p.nDeps[i]++
		}
		nSrcs += len(op.Srcs)
		switch {
		case op.Kind.IsConsume():
			if op.MemSrc < 0 || op.MemSrc >= int32(i) {
				return nil, fmt.Errorf("engine: program %s: op %d: consume without valid MemSrc", name, i)
			}
			if !ops[op.MemSrc].Kind.IsSend() {
				return nil, fmt.Errorf("engine: program %s: op %d: MemSrc %d is %v, not a send", name, i, op.MemSrc, ops[op.MemSrc].Kind)
			}
			p.cfOff[op.MemSrc+1]++
			p.nDeps[i]++
		case op.MemSrc != NoDep:
			return nil, fmt.Errorf("engine: program %s: op %d: MemSrc on non-consume op %v", name, i, op.Kind)
		}
		p.streamOff[int(op.Unit)+1]++
	}
	for i := 0; i < n; i++ {
		p.cpOff[i+1] += p.cpOff[i]
		p.cfOff[i+1] += p.cfOff[i]
	}
	for u := 0; u < numUnits; u++ {
		p.streamOff[u+1] += p.streamOff[u]
	}
	p.srcDat = make([]int32, nSrcs)
	p.cpDat = make([]int32, p.cpOff[n])
	p.cfDat = make([]int32, p.cfOff[n])
	p.streamDat = make([]int32, n)

	// Pass 2: fill the slabs. Consumer and stream lists are appended in
	// ascending op order, matching the order the old [][]int32 layout
	// produced; fill cursors reuse scratch counters.
	cpNext := make([]int32, n)
	cfNext := make([]int32, n)
	streamNext := make([]int32, numUnits)
	copy(cpNext, p.cpOff[:n])
	copy(cfNext, p.cfOff[:n])
	copy(streamNext, p.streamOff[:numUnits])
	srcPos := int32(0)
	for i := range ops {
		op := &ops[i]
		p.kinds[i] = op.Kind
		p.units[i] = uint8(op.Unit)
		p.origs[i] = op.Orig
		p.addrs[i] = op.Addr
		p.memSrcs[i] = NoDep
		p.srcOff[i] = srcPos
		for _, s := range op.Srcs {
			p.srcDat[srcPos] = s
			srcPos++
			p.cpDat[cpNext[s]] = int32(i)
			cpNext[s]++
		}
		if op.Kind.IsConsume() {
			p.memSrcs[i] = op.MemSrc
			p.cfDat[cfNext[op.MemSrc]] = int32(i)
			cfNext[op.MemSrc]++
		}
		u := int(op.Unit)
		p.posInStream[i] = streamNext[u] - p.streamOff[u]
		p.streamDat[streamNext[u]] = int32(i)
		streamNext[u]++
	}
	p.srcOff[n] = srcPos
	for i := range ops {
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

// MustProgram is NewProgram but panics on error; used by lowerings that
// are correct by construction.
func MustProgram(name string, ops []Op, numUnits, traceLen int) *Program {
	p, err := NewProgram(name, ops, numUnits, traceLen)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the number of machine operations.
func (p *Program) Len() int { return len(p.Ops) }

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

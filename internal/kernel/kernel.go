// Package kernel provides an SSA-style builder for authoring workload
// traces. Kernels are written as plain Go functions: loops are Go loops,
// loop-carried values are Go variables holding Val handles, and the
// builder emits one trace instruction per operation. This realizes the
// paper's idealized environment directly — the emitted trace has perfect
// renaming (SSA) and no loop-closing branches.
//
// Loads and stores carry concrete synthetic addresses derived from Array
// handles, so locality-aware memory models (bypass buffer, finite prefetch
// buffer) see realistic reference streams even though the paper's
// fixed-differential model ignores addresses.
package kernel

import (
	"fmt"

	"daesim/internal/isa"
	"daesim/internal/trace"
)

// Val is a handle to the value produced by an emitted instruction.
// The zero Val is "no value" (a compile-time constant): operations accept
// it and simply omit the dependence edge, modelling immediate operands.
type Val struct {
	idx int32 // trace index + 1, so the zero value means "constant"
}

// Const is the canonical constant/immediate value handle.
var Const = Val{}

// Valid reports whether v refers to an emitted instruction.
func (v Val) Valid() bool { return v.idx != 0 }

// Index returns the trace index of the producing instruction, or
// trace.None for constants.
func (v Val) Index() int32 {
	if v.idx == 0 {
		return trace.None
	}
	return v.idx - 1
}

// Array is a named region of the synthetic address space used to derive
// load/store addresses.
type Array struct {
	name string
	base uint64
	elem uint64
}

// Name returns the array's name.
func (a Array) Name() string { return a.name }

// At returns the byte address of element i.
func (a Array) At(i int) uint64 { return a.base + uint64(i)*a.elem }

// instrChunk is the number of instructions a Builder collects per chunk,
// and opChunk the number of operand references per operand slab.
const (
	instrChunk = 4096
	opChunk    = 8192
)

// Builder accumulates a trace. The zero value is not ready for use; call
// New.
//
// A Builder allocates in slabs, not per instruction: instructions fill
// fixed-size chunks that Trace copies once into an exactly sized
// stream, and every instruction's Addr and Args are carved from shared
// operand slabs with their capacity capped at their length, so an
// append to one instruction's operands reallocates rather than
// overwriting a neighbour's.
type Builder struct {
	name   string
	full   [][]trace.Instr // filled chunks, in program order
	cur    []trace.Instr   // the chunk being filled
	n      int             // instructions emitted
	ops    []int32         // the operand slab being carved
	nextAd uint64
}

// New returns a Builder for a workload with the given name.
func New(name string) *Builder {
	// Leave a low guard region so that address 0 is never a valid element.
	return &Builder{name: name, nextAd: 1 << 12}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return b.n }

// Array reserves an address region for n elements of elemSize bytes.
func (b *Builder) Array(name string, n, elemSize int) Array {
	if n <= 0 || elemSize <= 0 {
		panic(fmt.Sprintf("kernel: array %s: non-positive shape %d x %d", name, n, elemSize))
	}
	a := Array{name: name, base: b.nextAd, elem: uint64(elemSize)}
	b.nextAd += uint64(n) * uint64(elemSize)
	// Pad to a line boundary so arrays never share a cache line.
	if rem := b.nextAd % isa.CacheLineBytes; rem != 0 {
		b.nextAd += isa.CacheLineBytes - rem
	}
	return a
}

func (b *Builder) emit(in trace.Instr) Val {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]trace.Instr, 0, instrChunk)
	}
	b.cur = append(b.cur, in)
	b.n++
	return Val{idx: int32(b.n)}
}

// refs returns the trace indices of the valid values among vals, carved
// from the operand slab, or nil when every value is a constant.
func (b *Builder) refs(vals ...Val) []int32 {
	if cap(b.ops)-len(b.ops) < len(vals) {
		b.ops = make([]int32, 0, max(opChunk, len(vals)))
	}
	at := len(b.ops)
	for _, v := range vals {
		if v.Valid() {
			b.ops = append(b.ops, v.Index())
		}
	}
	if len(b.ops) == at {
		return nil
	}
	return b.ops[at:len(b.ops):len(b.ops)]
}

// Int emits an integer/address operation consuming the given values.
// Constant (zero) operands are dropped; an all-constant Int models loading
// an immediate or a loop-invariant base address.
func (b *Builder) Int(args ...Val) Val {
	return b.emit(trace.Instr{Class: isa.IntALU, Args: b.refs(args...)})
}

// FP emits a floating-point operation consuming the given values.
func (b *Builder) FP(args ...Val) Val {
	return b.emit(trace.Instr{Class: isa.FPALU, Args: b.refs(args...)})
}

// FPChain emits a dependent chain of n floating-point operations seeded by
// the given values, returning the final value. n must be >= 1.
func (b *Builder) FPChain(n int, args ...Val) Val {
	v := b.FP(args...)
	for i := 1; i < n; i++ {
		v = b.FP(v)
	}
	return v
}

// Load emits a load of arr[i] whose address depends on the given values.
func (b *Builder) Load(arr Array, i int, addr ...Val) Val {
	return b.emit(trace.Instr{Class: isa.Load, Addr: b.refs(addr...), MemAddr: arr.At(i)})
}

// Store emits a store of data to arr[i] whose address depends on the given
// values. Constant data is not meaningful: data must be a real value.
func (b *Builder) Store(arr Array, i int, data Val, addr ...Val) {
	if !data.Valid() {
		panic("kernel: store of constant data")
	}
	b.emit(trace.Instr{Class: isa.Store, Addr: b.refs(addr...), Args: b.refs(data), MemAddr: arr.At(i)})
}

// Trace finalizes the builder, validates the trace and returns it.
// The trace holds its own copy of the instruction stream, so the
// builder can keep being used without changing it; later Trace calls
// include the new instructions.
func (b *Builder) Trace() (*trace.Trace, error) {
	instrs := make([]trace.Instr, 0, b.n)
	for _, c := range b.full {
		instrs = append(instrs, c...)
	}
	instrs = append(instrs, b.cur...)
	t := &trace.Trace{Name: b.name, Instrs: instrs}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustTrace is Trace but panics on error; kernels constructed purely with
// Builder methods are valid by construction, so workload code uses this.
func (b *Builder) MustTrace() *trace.Trace {
	t, err := b.Trace()
	if err != nil {
		panic(err)
	}
	return t
}

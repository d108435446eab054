// Package kernel provides an SSA-style builder for authoring workload
// traces. Kernels are written as plain Go functions: loops are Go loops,
// loop-carried values are Go variables holding Val handles, and the
// builder writes one trace instruction per operation straight into the
// trace's slabs (trace.Builder). This realizes the paper's idealized
// environment directly — the emitted trace has perfect renaming (SSA)
// and no loop-closing branches.
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

// Builder accumulates a trace, writing each instruction straight into
// the trace's slabs through a trace.Builder. The zero value is not ready
// for use; call New.
type Builder struct {
	tb     *trace.Builder
	nextAd uint64
}

// New returns a Builder for a workload with the given name.
func New(name string) *Builder {
	// Leave a low guard region so that address 0 is never a valid element.
	return &Builder{tb: trace.NewBuilder(name), nextAd: 1 << 12}
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return b.tb.Len() }

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

// refs gives the trace indices of the valid values among vals as the
// next instruction's operands, dropping constants.
func (b *Builder) refs(vals ...Val) {
	for _, v := range vals {
		if v.Valid() {
			b.tb.Ref(v.Index())
		}
	}
}

// emit closes the instruction refs gave the operands of.
func (b *Builder) emit(c isa.Class, mem uint64) Val { return Val{idx: b.tb.Emit(c, mem) + 1} }

// Int emits an integer/address operation consuming the given values.
// Constant (zero) operands are dropped; an all-constant Int models loading
// an immediate or a loop-invariant base address.
func (b *Builder) Int(args ...Val) Val {
	b.refs(args...)
	return b.emit(isa.IntALU, 0)
}

// FP emits a floating-point operation consuming the given values.
func (b *Builder) FP(args ...Val) Val {
	b.refs(args...)
	return b.emit(isa.FPALU, 0)
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
	b.refs(addr...)
	return b.emit(isa.Load, arr.At(i))
}

// Store emits a store of data to arr[i] whose address depends on the given
// values. Constant data is not meaningful: data must be a real value.
func (b *Builder) Store(arr Array, i int, data Val, addr ...Val) {
	if !data.Valid() {
		panic("kernel: store of constant data")
	}
	b.refs(addr...)
	b.refs(data)
	b.emit(isa.Store, arr.At(i))
}

// Trace validates the trace emitted so far and returns it. The trace
// shares the builder's slabs, which the builder only appends to, so it
// can keep being used; later Trace calls include the new instructions.
func (b *Builder) Trace() (*trace.Trace, error) { return b.tb.Trace() }

// MustTrace is Trace but panics on error; kernels constructed purely with
// Builder methods are valid by construction, so workload code uses this.
func (b *Builder) MustTrace() *trace.Trace {
	t, err := b.Trace()
	if err != nil {
		panic(err)
	}
	return t
}

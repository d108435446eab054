// Package isa defines the instruction classes, machine-operation kinds,
// execution units and timing/width configuration shared by the whole
// simulator.
//
// The vocabulary follows Jones & Topham (MICRO-30, 1997): a trace is a
// stream of architecture-neutral instructions (Class); lowering turns each
// instruction into one or more machine operations (OpKind) bound to an
// execution unit (Unit) of a particular machine model.
package isa

import "fmt"

// Class is the architecture-neutral instruction class used in traces.
type Class uint8

const (
	// IntALU is integer/address arithmetic: one-cycle latency.
	IntALU Class = iota
	// FPALU is floating-point arithmetic: Config.FPLat latency.
	FPALU
	// Load reads a value from the memory system.
	Load
	// Store writes a value to the memory system.
	Store
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

func (c Class) String() string {
	switch c {
	case IntALU:
		return "int"
	case FPALU:
		return "fp"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Valid reports whether c is a defined instruction class.
func (c Class) Valid() bool { return c < numClasses }

// Unit identifies an execution core within a machine model.
type Unit uint8

const (
	// AU is the address unit of the decoupled machine. It is also the
	// single core of the superscalar machine and the serial baseline.
	AU Unit = 0
	// DU is the data unit of the decoupled machine.
	DU Unit = 1
)

func (u Unit) String() string {
	switch u {
	case AU:
		return "AU"
	case DU:
		return "DU"
	default:
		return fmt.Sprintf("unit(%d)", uint8(u))
	}
}

// OpKind is the machine-level operation kind produced by lowering.
type OpKind uint8

const (
	// OpInt is integer/address computation (1 cycle).
	OpInt OpKind = iota
	// OpFP is floating-point computation (FPLat cycles).
	OpFP
	// OpLoadSend computes/dispatches a load address to the memory system
	// (decoupled machine AU). Fire-and-forget: 1 cycle in the window; the
	// fill arrives MD cycles after completion.
	OpLoadSend
	// OpLoadRecv consumes a load value from the decoupled memory. Ready
	// once the fill has arrived; the request costs 1 cycle.
	OpLoadRecv
	// OpPrefetch dispatches a load/store address to the memory system
	// (superscalar machine). Fire-and-forget, 1 cycle.
	OpPrefetch
	// OpAccess consumes a value from the prefetch buffer (superscalar
	// machine). Ready once the fill has arrived; the request costs 1 cycle.
	OpAccess
	// OpStoreAddr sends a store address (decoupled machine AU), 1 cycle.
	OpStoreAddr
	// OpStoreData sends store data to the store queue, 1 cycle.
	OpStoreData
	// OpStoreAcc commits a store on the superscalar machine once both
	// address and data are ready, 1 cycle. Stores never stall consumers.
	OpStoreAcc
	// OpCopy moves a register value between the AU and DU register files.
	// It executes on the producing unit and costs CopyLat cycles.
	OpCopy
	numOpKinds
)

// NumOpKinds is the number of distinct machine-operation kinds.
const NumOpKinds = int(numOpKinds)

func (k OpKind) String() string {
	switch k {
	case OpInt:
		return "int"
	case OpFP:
		return "fp"
	case OpLoadSend:
		return "load.send"
	case OpLoadRecv:
		return "load.recv"
	case OpPrefetch:
		return "prefetch"
	case OpAccess:
		return "access"
	case OpStoreAddr:
		return "store.addr"
	case OpStoreData:
		return "store.data"
	case OpStoreAcc:
		return "store.acc"
	case OpCopy:
		return "copy"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined operation kind.
func (k OpKind) Valid() bool { return k < numOpKinds }

// IsSend reports whether k dispatches an address to the memory system.
func (k OpKind) IsSend() bool {
	return k == OpLoadSend || k == OpPrefetch || k == OpStoreAddr
}

// IsConsume reports whether k waits on a memory fill before issuing.
func (k OpKind) IsConsume() bool { return k == OpLoadRecv || k == OpAccess }

// CoreConfig describes one out-of-order core.
type CoreConfig struct {
	// Window is the number of instruction-window slots. Zero or negative
	// means unlimited (the paper's "unlimited window" configuration).
	Window int
	// IssueWidth is the maximum instructions issued per cycle, and
	// dispatched (inserted into the window, in program order) per cycle.
	// Must be >= 1.
	IssueWidth int
}

// Unlimited reports whether the window is unbounded.
func (c CoreConfig) Unlimited() bool { return c.Window <= 0 }

// Validate reports a descriptive error for nonsensical configurations.
func (c CoreConfig) Validate() error {
	if c.IssueWidth < 1 {
		return fmt.Errorf("isa: issue width %d < 1", c.IssueWidth)
	}
	return nil
}

// Timing collects the latency parameters shared by all machine models.
type Timing struct {
	// MD is the memory differential: the extra cycles a memory-system
	// access costs over a register access. The paper sweeps 0..60.
	MD int
	// FPLat is the floating-point latency in cycles (paper: small,
	// excluding divide; we default to 3).
	FPLat int
	// CopyLat is the inter-unit register copy latency in cycles.
	CopyLat int
}

// DefaultTiming returns the paper's default latency parameters with the
// given memory differential.
func DefaultTiming(md int) Timing {
	return Timing{MD: md, FPLat: DefaultFPLat, CopyLat: DefaultCopyLat}
}

// Validate reports a descriptive error for nonsensical timings.
func (t Timing) Validate() error {
	if t.MD < 0 {
		return fmt.Errorf("isa: memory differential %d < 0", t.MD)
	}
	if t.FPLat < 1 {
		return fmt.Errorf("isa: fp latency %d < 1", t.FPLat)
	}
	if t.CopyLat < 1 {
		return fmt.Errorf("isa: copy latency %d < 1", t.CopyLat)
	}
	return nil
}

// Latency returns the execution latency in cycles for an operation kind.
// Memory fills are modelled as edge delays, not execution latency, so
// consume ops cost a single cycle once ready (the buffer request cost).
func (t Timing) Latency(k OpKind) int {
	switch k {
	case OpFP:
		return t.FPLat
	case OpCopy:
		return t.CopyLat
	default:
		return 1
	}
}

// Paper-default machine parameters. The OCR of the paper loses the digits,
// but the figures are labelled CIW=9 (combined issue width 9) and the
// authors' companion study uses a 4/5 split; see DESIGN.md §2.
const (
	DefaultAUWidth   = 4
	DefaultDUWidth   = 5
	DefaultSWSMWidth = DefaultAUWidth + DefaultDUWidth
	DefaultFPLat     = 3
	DefaultCopyLat   = 1
	// DefaultMD is the paper's headline memory differential (an L2-miss
	// comparable cost).
	DefaultMD = 60
	// CacheLineBytes is the line granularity used by the optional
	// locality-aware buffers (bypass buffer, finite prefetch buffer).
	CacheLineBytes = 64
)

// LineOf returns the cache-line index of a byte address.
func LineOf(addr uint64) uint64 { return addr / CacheLineBytes }

// Package lower translates architecture-neutral traces into machine
// programs for the two machine models of the paper.
//
// Decoupled machine (DM): every load becomes a LoadSend on the AU plus a
// LoadRecv on each unit that consumes the value; every store becomes a
// StoreAddr on the AU plus a StoreData on the unit producing the data;
// values crossing between units are moved by Copy ops executed on the
// producing unit. Both halves of a memory operation are "one instruction
// on each of the units", as in the paper.
//
// Superscalar machine (SWSM): every memory operation becomes two
// instructions, a Prefetch that dispatches the address to the memory
// system as soon as run-time resources allow, and an Access that consumes
// the value from the prefetch buffer (loads) or commits the store.
package lower

import (
	"fmt"

	"daesim/internal/engine"
	"daesim/internal/isa"
	"daesim/internal/partition"
	"daesim/internal/trace"
)

// DM lowers tr for the decoupled machine under the partition assignment
// asg: unit 0 is the AU, unit 1 the DU. A counting walk sizes the
// program exactly before the building walk fills it.
func DM(tr *trace.Trace, asg *partition.Assignment) (*engine.Program, error) {
	out := engine.NewProgramBuilder(walkDM(tr, asg, nil))
	walkDM(tr, asg, out)
	return out.Program(tr.Name+"/dm", 2, tr.Len())
}

// SWSM lowers tr for the single-window superscalar machine. Every
// instruction lowers to one op and every memory instruction to one
// more, which sizes the program exactly.
func SWSM(tr *trace.Trace) (*engine.Program, error) {
	st := tr.Stats()
	out := engine.NewProgramBuilder(st.Total + st.MemRefs)
	walkSWSM(tr, out)
	return out.Program(tr.Name+"/swsm", 1, tr.Len())
}

// walkDM is the decoupled-machine lowering of tr under asg. It visits
// every op of the program in order, appending each to out when out is
// non-nil, and returns the op count.
func walkDM(tr *trace.Trace, asg *partition.Assignment, out *engine.ProgramBuilder) (ops int) {
	n := tr.Len()
	// avail[u][v] is the machine op producing trace value v on unit u, or
	// engine.NoDep when the value is not (yet) available there.
	avail := [2][]int32{make([]int32, n), make([]int32, n)}
	for u := 0; u < 2; u++ {
		for i := range avail[u] {
			avail[u][i] = engine.NoDep
		}
	}
	// srcs and copySrc are the walk's scratch for resolved sources; Add
	// copies them out.
	srcs := make([]int32, 0, 8)
	copySrc := make([]int32, 1)
	emit := func(op engine.Op) int32 {
		if out != nil {
			out.Add(op)
		}
		ops++
		return int32(ops - 1)
	}
	// resolve returns the op producing trace value v on unit u, inserting
	// a copy from the other unit if needed.
	resolve := func(v int32, u isa.Unit, orig int32) int32 {
		if got := avail[u][v]; got != engine.NoDep {
			return got
		}
		other := isa.DU
		if u == isa.DU {
			other = isa.AU
		}
		src := avail[other][v]
		if src == engine.NoDep {
			panic(fmt.Sprintf("lower: trace %s: value %d unavailable on both units at %d", tr.Name, v, orig))
		}
		copySrc[0] = src
		cp := emit(engine.Op{Kind: isa.OpCopy, Unit: other, Srcs: copySrc, MemSrc: engine.NoDep, Orig: orig})
		avail[u][v] = cp
		return cp
	}
	resolveAll := func(vals []int32, u isa.Unit, orig int32) []int32 {
		if len(vals) == 0 {
			return nil
		}
		srcs = srcs[:0]
		for _, v := range vals {
			srcs = append(srcs, resolve(v, u, orig))
		}
		return srcs
	}

	for i := 0; i < n; i++ {
		orig, addr := int32(i), tr.MemAddr(i)
		switch c := tr.Class(i); c {
		case isa.IntALU, isa.FPALU:
			u := asg.Unit[i]
			kind := isa.OpInt
			if c == isa.FPALU {
				kind = isa.OpFP
			}
			idx := emit(engine.Op{Kind: kind, Unit: u, Srcs: resolveAll(tr.Args(i), u, orig), MemSrc: engine.NoDep, Orig: orig})
			avail[u][i] = idx
		case isa.Load:
			send := emit(engine.Op{
				Kind: isa.OpLoadSend, Unit: isa.AU,
				Srcs: resolveAll(tr.Addr(i), isa.AU, orig), MemSrc: engine.NoDep,
				Addr: addr, Orig: orig,
			})
			if asg.RecvAU[i] {
				avail[isa.AU][i] = emit(engine.Op{Kind: isa.OpLoadRecv, Unit: isa.AU, MemSrc: send, Addr: addr, Orig: orig})
			}
			if asg.RecvDU[i] {
				avail[isa.DU][i] = emit(engine.Op{Kind: isa.OpLoadRecv, Unit: isa.DU, MemSrc: send, Addr: addr, Orig: orig})
			}
		case isa.Store:
			emit(engine.Op{
				Kind: isa.OpStoreAddr, Unit: isa.AU,
				Srcs: resolveAll(tr.Addr(i), isa.AU, orig), MemSrc: engine.NoDep,
				Addr: addr, Orig: orig,
			})
			args := tr.Args(i)
			data := args[0]
			// The data half executes on whichever unit already holds the
			// value, preferring the DU (the paper's data side).
			du := isa.DU
			if avail[isa.DU][data] == engine.NoDep {
				du = isa.AU
			}
			emit(engine.Op{
				Kind: isa.OpStoreData, Unit: du,
				Srcs: resolveAll(args, du, orig), MemSrc: engine.NoDep,
				Addr: addr, Orig: orig,
			})
		}
	}
	return ops
}

// walkSWSM is the superscalar lowering of tr. It appends every op of the
// program to out in order.
func walkSWSM(tr *trace.Trace, out *engine.ProgramBuilder) {
	n := tr.Len()
	avail := make([]int32, n)
	for i := range avail {
		avail[i] = engine.NoDep
	}
	srcs := make([]int32, 0, 8)
	// resolveAll returns the producers of vals, in order, in the scratch
	// srcs (nil when there are none).
	resolveAll := func(vals []int32) []int32 {
		srcs = srcs[:0]
		for _, v := range vals {
			if avail[v] == engine.NoDep {
				panic(fmt.Sprintf("lower: trace %s: value %d unavailable", tr.Name, v))
			}
			srcs = append(srcs, avail[v])
		}
		if len(srcs) == 0 {
			return nil
		}
		return srcs
	}
	ops := int32(0)
	emit := func(op engine.Op) int32 {
		out.Add(op)
		ops++
		return ops - 1
	}
	for i := 0; i < n; i++ {
		orig, addr := int32(i), tr.MemAddr(i)
		switch tr.Class(i) {
		case isa.IntALU:
			avail[i] = emit(engine.Op{Kind: isa.OpInt, Unit: isa.AU, Srcs: resolveAll(tr.Args(i)), MemSrc: engine.NoDep, Orig: orig})
		case isa.FPALU:
			avail[i] = emit(engine.Op{Kind: isa.OpFP, Unit: isa.AU, Srcs: resolveAll(tr.Args(i)), MemSrc: engine.NoDep, Orig: orig})
		case isa.Load:
			pf := emit(engine.Op{Kind: isa.OpPrefetch, Unit: isa.AU, Srcs: resolveAll(tr.Addr(i)), MemSrc: engine.NoDep, Addr: addr, Orig: orig})
			// The access's fill edge subsumes the address dependencies: the
			// fill cannot arrive before the prefetch issued.
			avail[i] = emit(engine.Op{Kind: isa.OpAccess, Unit: isa.AU, MemSrc: pf, Addr: addr, Orig: orig})
		case isa.Store:
			emit(engine.Op{Kind: isa.OpPrefetch, Unit: isa.AU, Srcs: resolveAll(tr.Addr(i)), MemSrc: engine.NoDep, Addr: addr, Orig: orig})
			// The access reads every operand, address operands first.
			emit(engine.Op{Kind: isa.OpStoreAcc, Unit: isa.AU, Srcs: resolveAll(tr.Operands(i)), MemSrc: engine.NoDep, Addr: addr, Orig: orig})
		}
	}
}

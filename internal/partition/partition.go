// Package partition splits a trace between the address unit (AU) and the
// data unit (DU) of the decoupled machine.
//
// The static partition follows the classic decoupled access/execute
// discipline: the AU owns address computation and memory access, the DU
// owns data computation. Concretely, the backward slice of every memory
// address (propagated through integer ops and loads, stopping at FP ops)
// is marked as the address slice. Floating-point ops always execute on
// the DU. Loads are sent by the AU; their values are delivered by the
// decoupled memory to whichever units consume them (a delivery to the AU
// is a self-load, e.g. an index load feeding later addresses).
//
// Values crossing between units travel through explicit copy operations
// executed by the producing unit. A DU→AU copy is a loss-of-decoupling
// hazard: the AU must wait for data computation before it can continue
// generating addresses.
//
// Three placement policies are provided for integer ops outside the
// address slice (pure data bookkeeping): Classic sends them to the AU
// (all-integer AU, as in classic DAE machines), SliceOnly sends them to
// the DU (minimal AU), and Balance assigns each to the unit with fewer
// ops so far. The paper's machine corresponds to Classic.
package partition

import (
	"fmt"

	"daesim/internal/isa"
	"daesim/internal/trace"
)

// Policy selects the placement of integer ops outside the address slice.
type Policy uint8

const (
	// Classic places all integer computation on the AU.
	Classic Policy = iota
	// SliceOnly places only the address slice on the AU.
	SliceOnly
	// Balance greedily balances non-slice integer ops between units.
	Balance
	numPolicies
)

func (p Policy) String() string {
	switch p {
	case Classic:
		return "classic"
	case SliceOnly:
		return "slice-only"
	case Balance:
		return "balance"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Policies lists all placement policies.
func Policies() []Policy { return []Policy{Classic, SliceOnly, Balance} }

// MarshalText writes the policy's name, its wire form.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText reads a policy's name; the empty string is Classic.
func (p *Policy) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*p = Classic
		return nil
	}
	for _, c := range Policies() {
		if string(text) == c.String() {
			*p = c
			return nil
		}
	}
	return fmt.Errorf("partition: unknown partition policy %q (want classic, slice-only, balance)", text)
}

// Assignment is the result of partitioning a trace.
type Assignment struct {
	// Unit is the executing unit per trace instruction: for Int/FP ops the
	// unit that computes the value; for loads and stores, AU (the unit
	// that initiates the access).
	Unit []isa.Unit
	// InAddrSlice marks instructions in the backward slice of a memory
	// address (AddrSlice). Assignments of one trace may share it.
	InAddrSlice []bool
	// RecvAU/RecvDU mark loads whose value must be delivered to the AU
	// (self-load) and/or the DU.
	RecvAU, RecvDU []bool
	// Counts per unit of value-computing instructions (loads counted on
	// each receiving unit).
	//daelint:unkeyed derived from Unit, RecvAU and RecvDU, which the source key hashes
	OpsAU, OpsDU int
	// SelfLoads counts loads delivered to the AU.
	//daelint:unkeyed derived from RecvAU, which the source key hashes
	SelfLoads int
}

// Partition computes the AU/DU assignment of tr under the given policy:
// AddrSlice followed by Assign. The trace must be valid.
func Partition(tr *trace.Trace, pol Policy) (*Assignment, error) {
	return Assign(tr, AddrSlice(tr), pol)
}

// AddrSlice marks the backward slice of every memory address in tr: the
// seeds are the address operands of memory ops, and the marking
// propagates backwards through integer ops and loads. FP ops terminate
// propagation (they stay on the DU; their value crosses by copy). The
// slice depends only on the trace, so every policy shares it.
func AddrSlice(tr *trace.Trace) []bool {
	slice := make([]bool, tr.Len())
	work := make([]int32, 0, tr.Len()/4)
	mark := func(i int32) {
		if !slice[i] && tr.Class(int(i)) != isa.FPALU {
			slice[i] = true
			work = append(work, i)
		}
	}
	for i := range slice {
		for _, p := range tr.Addr(i) {
			mark(p)
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		// A load's value feeds addresses; its inputs are already
		// addresses by construction (they are Addr operands), and Args
		// holds none.
		for _, p := range tr.Args(int(i)) {
			mark(p)
		}
	}
	return slice
}

// Assign places tr's ops on the units under pol and routes its load
// deliveries, given tr's address slice (AddrSlice(tr)). The assignment
// keeps slice as its InAddrSlice, so assignments of one trace under
// several policies share it; it is read-only.
func Assign(tr *trace.Trace, slice []bool, pol Policy) (*Assignment, error) {
	if pol >= numPolicies {
		return nil, fmt.Errorf("partition: unknown policy %d", pol)
	}
	n := tr.Len()
	a := &Assignment{
		Unit:        make([]isa.Unit, n),
		InAddrSlice: slice,
		RecvAU:      make([]bool, n),
		RecvDU:      make([]bool, n),
	}

	// Assign units.
	for i := range n {
		switch tr.Class(i) {
		case isa.FPALU:
			a.Unit[i] = isa.DU
			a.OpsDU++
		case isa.Load, isa.Store:
			a.Unit[i] = isa.AU
		case isa.IntALU:
			switch {
			case a.InAddrSlice[i]:
				a.Unit[i] = isa.AU
				a.OpsAU++
			case pol == Classic:
				a.Unit[i] = isa.AU
				a.OpsAU++
			case pol == SliceOnly:
				a.Unit[i] = isa.DU
				a.OpsDU++
			default: // Balance
				if a.OpsAU <= a.OpsDU {
					a.Unit[i] = isa.AU
					a.OpsAU++
				} else {
					a.Unit[i] = isa.DU
					a.OpsDU++
				}
			}
		}
	}

	// Route load deliveries to consuming units. Address operands need
	// the value on the AU, value operands on the consumer's unit. A
	// store's data goes to its store-data op, which lowering places on
	// the unit already holding the value, so a load feeding a store
	// directly is delivered on the DU (data side): a pure
	// memory-to-memory copy.
	for i := range n {
		for _, p := range tr.Addr(i) {
			if tr.Class(int(p)) == isa.Load {
				a.RecvAU[p] = true
			}
		}
		toAU := a.Unit[i] == isa.AU && tr.Class(i) != isa.Store
		for _, p := range tr.Args(i) {
			if tr.Class(int(p)) != isa.Load {
				continue
			}
			if toAU {
				a.RecvAU[p] = true
			} else {
				a.RecvDU[p] = true
			}
		}
	}
	for i := range n {
		if tr.Class(i) == isa.Load {
			if !a.RecvAU[i] && !a.RecvDU[i] {
				// Dead load: deliver to the DU by convention.
				a.RecvDU[i] = true
			}
			if a.RecvAU[i] {
				a.SelfLoads++
				a.OpsAU++
			}
			if a.RecvDU[i] {
				a.OpsDU++
			}
		}
	}
	return a, nil
}

// Stats summarizes an assignment for reporting.
type Stats struct {
	AUOps, DUOps int
	SelfLoads    int
	SliceSize    int
}

// Stats computes summary statistics for the assignment.
func (a *Assignment) Stats() Stats {
	s := Stats{AUOps: a.OpsAU, DUOps: a.OpsDU, SelfLoads: a.SelfLoads}
	for _, in := range a.InAddrSlice {
		if in {
			s.SliceSize++
		}
	}
	return s
}

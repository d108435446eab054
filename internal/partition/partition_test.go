package partition

import (
	"testing"

	"daesim/internal/isa"
	"daesim/internal/trace"
)

// mustTrace builds a trace from authored instructions that must be valid.
func mustTrace(name string, instrs []trace.Instr) *trace.Trace {
	tr, err := trace.New(name, instrs...)
	if err != nil {
		panic(err)
	}
	return tr
}

// mk builds a tiny trace: int; load(addr=0); fp(1); store(fp, addr=0).
func mk() *trace.Trace {
	return mustTrace("t", []trace.Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x1000},
		{Class: isa.FPALU, Args: []int32{1}},
		{Class: isa.Store, Addr: []int32{0}, Args: []int32{2}, MemAddr: 0x2000},
	})
}

func TestClassicPartition(t *testing.T) {
	a, err := Partition(mk(), Classic)
	if err != nil {
		t.Fatal(err)
	}
	if !a.InAddrSlice[0] {
		t.Error("address int not in slice")
	}
	if a.InAddrSlice[2] {
		t.Error("fp must not be in slice")
	}
	if a.Unit[0] != isa.AU || a.Unit[2] != isa.DU {
		t.Errorf("units wrong: %v %v", a.Unit[0], a.Unit[2])
	}
	if a.RecvAU[1] || !a.RecvDU[1] {
		t.Errorf("load delivery wrong: AU=%v DU=%v", a.RecvAU[1], a.RecvDU[1])
	}
	if a.SelfLoads != 0 {
		t.Errorf("self loads = %d, want 0", a.SelfLoads)
	}
}

func TestSelfLoadDetection(t *testing.T) {
	// load idx; int(idx); load(addr=int): the first load feeds an address.
	tr := mustTrace("gather", []trace.Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x100},
		{Class: isa.IntALU, Args: []int32{1}},
		{Class: isa.Load, Addr: []int32{2}, MemAddr: 0x200},
		{Class: isa.FPALU, Args: []int32{3}},
	})
	a, err := Partition(tr, Classic)
	if err != nil {
		t.Fatal(err)
	}
	if !a.RecvAU[1] {
		t.Error("index load must be delivered to the AU")
	}
	if a.SelfLoads != 1 {
		t.Errorf("self loads = %d, want 1", a.SelfLoads)
	}
	if !a.InAddrSlice[1] || !a.InAddrSlice[2] {
		t.Error("index load and int must be in the address slice")
	}
	if !a.RecvDU[3] {
		t.Error("fp-consumed load must be delivered to the DU")
	}
}

func TestFPTerminatesSlice(t *testing.T) {
	// fp; int(fp); load(addr=int): the fp feeds an address but stays DU.
	tr := mustTrace("lod", []trace.Instr{
		{Class: isa.FPALU},
		{Class: isa.IntALU, Args: []int32{0}},
		{Class: isa.Load, Addr: []int32{1}, MemAddr: 0x300},
	})
	a, err := Partition(tr, Classic)
	if err != nil {
		t.Fatal(err)
	}
	if a.InAddrSlice[0] {
		t.Error("fp must terminate slice propagation")
	}
	if a.Unit[0] != isa.DU {
		t.Error("fp must stay on the DU")
	}
	if !a.InAddrSlice[1] || a.Unit[1] != isa.AU {
		t.Error("int feeding address must be AU")
	}
}

func TestPoliciesPlaceNonSliceInt(t *testing.T) {
	// One non-slice int op (pure data): int; fp(int-data? keep int data alone)
	tr := mustTrace("data", []trace.Instr{
		{Class: isa.IntALU}, // data int, not feeding any address
		{Class: isa.FPALU, Args: []int32{0}},
	})
	classic, _ := Partition(tr, Classic)
	if classic.Unit[0] != isa.AU {
		t.Error("classic must place int on AU")
	}
	slice, _ := Partition(tr, SliceOnly)
	if slice.Unit[0] != isa.DU {
		t.Error("slice-only must place non-slice int on DU")
	}
	bal, _ := Partition(tr, Balance)
	if bal.Unit[0] != isa.AU && bal.Unit[0] != isa.DU {
		t.Error("balance must place the op somewhere")
	}
}

func TestDeadLoadDefaultsToDU(t *testing.T) {
	tr := mustTrace("dead", []trace.Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x40},
	})
	a, err := Partition(tr, Classic)
	if err != nil {
		t.Fatal(err)
	}
	if !a.RecvDU[1] || a.RecvAU[1] {
		t.Error("dead load should be delivered to the DU only")
	}
}

func TestStoreDataFromLoad(t *testing.T) {
	// memory-to-memory copy: load; store(load).
	tr := mustTrace("memcpy", []trace.Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x80},
		{Class: isa.Store, Addr: []int32{0}, Args: []int32{1}, MemAddr: 0xc0},
	})
	a, err := Partition(tr, Classic)
	if err != nil {
		t.Fatal(err)
	}
	if !a.RecvDU[1] {
		t.Error("store-feeding load should be delivered to the DU")
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := Partition(mk(), Policy(99)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if Classic.String() != "classic" || SliceOnly.String() != "slice-only" || Balance.String() != "balance" {
		t.Error("policy names wrong")
	}
	if len(Policies()) != 3 {
		t.Error("expected 3 policies")
	}
}

// TestPolicyText: every policy round-trips through its text form, the
// empty string is Classic, and other names are refused.
func TestPolicyText(t *testing.T) {
	for _, p := range Policies() {
		text, err := p.MarshalText()
		var back Policy
		if err != nil || back.UnmarshalText(text) != nil || back != p {
			t.Errorf("%v round-trips as %v (%s, %v)", p, back, text, err)
		}
	}
	back := Balance
	if err := back.UnmarshalText(nil); err != nil || back != Classic {
		t.Errorf("empty text decodes as %v (%v), want classic", back, err)
	}
	for _, bad := range []string{"x", "Classic", "policy(3)"} {
		if err := back.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestStats(t *testing.T) {
	a, _ := Partition(mk(), Classic)
	s := a.Stats()
	if s.SliceSize != 1 {
		t.Errorf("slice size = %d, want 1", s.SliceSize)
	}
	if s.AUOps == 0 || s.DUOps == 0 {
		t.Errorf("ops counts empty: %+v", s)
	}
}

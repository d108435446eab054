package trace

import (
	"testing"

	"daesim/internal/isa"
)

func digestTrace() *Trace {
	return &Trace{Name: "d", Instrs: []Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x40},
		{Class: isa.FPALU, Args: []int32{1}},
		{Class: isa.Store, Addr: []int32{0}, Args: []int32{2}, MemAddr: 0x80},
	}}
}

// TestDigestCoversEveryField: changing any field of any instruction, or
// the name, changes the digest; an equal trace digests equally, and the
// digest is memoized per Trace.
func TestDigestCoversEveryField(t *testing.T) {
	base := digestTrace().Digest()
	if digestTrace().Digest() != base {
		t.Fatal("equal traces must digest equally")
	}
	edits := map[string]func(tr *Trace){
		"name":    func(tr *Trace) { tr.Name = "e" },
		"class":   func(tr *Trace) { tr.Instrs[2].Class = isa.IntALU },
		"addr":    func(tr *Trace) { tr.Instrs[3].Addr = []int32{1} },
		"args":    func(tr *Trace) { tr.Instrs[2].Args = []int32{0} },
		"memaddr": func(tr *Trace) { tr.Instrs[1].MemAddr = 0x48 },
		"length":  func(tr *Trace) { tr.Instrs = tr.Instrs[:3] },
		// Moving an operand between the lists keeps the flattened stream
		// and must still count.
		"split": func(tr *Trace) { tr.Instrs[3].Addr, tr.Instrs[3].Args = []int32{0, 2}, nil },
	}
	for name, edit := range edits { //daelint:nondeterministic-ok independent subcases
		tr := digestTrace()
		edit(tr)
		if tr.Digest() == base {
			t.Errorf("%s edit left the digest unchanged", name)
		}
	}
	tr := digestTrace()
	d := tr.Digest()
	tr.Instrs[1].MemAddr++
	if tr.Digest() != d {
		t.Error("Digest must be computed once per Trace")
	}
}

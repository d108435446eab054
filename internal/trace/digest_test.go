package trace

import (
	"testing"

	"daesim/internal/isa"
)

func digestInstrs() []Instr {
	return []Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x40},
		{Class: isa.FPALU, Args: []int32{1}},
		{Class: isa.Store, Addr: []int32{0}, Args: []int32{2}, MemAddr: 0x80},
	}
}

// TestDigestCoversEveryField: changing any field of any instruction, or
// the name, changes the digest; an equal trace digests equally, and the
// digest is memoized per Trace. Which operands are address operands
// follows from the class, so the class edit covers the split.
func TestDigestCoversEveryField(t *testing.T) {
	base := mustTrace("d", digestInstrs()).Digest()
	if mustTrace("d", digestInstrs()).Digest() != base {
		t.Fatal("equal traces must digest equally")
	}
	edits := map[string]func(in []Instr) []Instr{
		"class":   func(in []Instr) []Instr { in[2].Class = isa.IntALU; return in },
		"addr":    func(in []Instr) []Instr { in[3].Addr = []int32{1}; return in },
		"args":    func(in []Instr) []Instr { in[2].Args = []int32{0}; return in },
		"memaddr": func(in []Instr) []Instr { in[1].MemAddr = 0x48; return in },
		"length":  func(in []Instr) []Instr { return in[:3] },
		// The same flattened operand stream under another class.
		"split": func(in []Instr) []Instr { in[1].Class, in[1].Addr, in[1].Args = isa.IntALU, nil, []int32{0}; return in },
	}
	for name, edit := range edits { //daelint:nondeterministic-ok independent subcases
		if mustTrace("d", edit(digestInstrs())).Digest() == base {
			t.Errorf("%s edit left the digest unchanged", name)
		}
	}
	if mustTrace("e", digestInstrs()).Digest() == base {
		t.Error("name edit left the digest unchanged")
	}
	tr := mustTrace("d", digestInstrs())
	d := tr.Digest()
	tr.memAddr[1]++
	if tr.Digest() != d {
		t.Error("Digest must be computed once per Trace")
	}
}

package trace

import (
	"strings"
	"testing"

	"daesim/internal/isa"
)

// refTrace builds a trace touching the given line numbers in order.
func refTrace(lines ...uint64) *Trace {
	instrs := []Instr{{Class: isa.IntALU}}
	for _, l := range lines {
		instrs = append(instrs, Instr{
			Class: isa.Load, Addr: []int32{0},
			MemAddr: l * isa.CacheLineBytes,
		})
	}
	return mustTrace("refs", instrs)
}

func TestReuseNoReuse(t *testing.T) {
	p := refTrace(1, 2, 3, 4).Reuse()
	if p.Refs != 4 || p.Lines != 4 || len(p.Distances) != 0 {
		t.Fatalf("streaming trace profile wrong: %+v", p)
	}
	if p.MedianDistance() != -1 {
		t.Fatal("no reuse should report -1 median")
	}
	if p.HitRate(1024) != 0 {
		t.Fatal("no reuse means zero hit rate at any capacity")
	}
}

func TestReuseStackDistances(t *testing.T) {
	// 1 2 1: reuse of 1 with one distinct line (2) in between => dist 1.
	// then 2: dist 1 (line 1 in between).
	p := refTrace(1, 2, 1, 2).Reuse()
	if p.Refs != 4 || p.Lines != 2 {
		t.Fatalf("profile wrong: %+v", p)
	}
	if len(p.Distances) != 2 || p.Distances[0] != 1 || p.Distances[1] != 1 {
		t.Fatalf("distances wrong: %v", p.Distances)
	}
	// Capacity 1 misses both (distance 1 >= 1); capacity 2 catches both.
	if p.HitRate(1) != 0 {
		t.Fatalf("capacity-1 hit rate = %v", p.HitRate(1))
	}
	if p.HitRate(2) != 0.5 {
		t.Fatalf("capacity-2 hit rate = %v, want 0.5", p.HitRate(2))
	}
}

func TestReuseImmediate(t *testing.T) {
	// Back-to-back same line: distance 0, captured by capacity 1.
	p := refTrace(7, 7, 7).Reuse()
	if len(p.Distances) != 2 || p.Distances[0] != 0 {
		t.Fatalf("distances wrong: %v", p.Distances)
	}
	if p.HitRate(1) != 2.0/3.0 {
		t.Fatalf("hit rate = %v", p.HitRate(1))
	}
	if p.MedianDistance() != 0 {
		t.Fatal("median should be 0")
	}
}

func TestReuseMatchesSameLineSubwordAccesses(t *testing.T) {
	// Two addresses within one line count as reuse.
	tr := mustTrace("", []Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x100},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x108},
	})
	p := tr.Reuse()
	if p.Lines != 1 || len(p.Distances) != 1 || p.Distances[0] != 0 {
		t.Fatalf("subword reuse wrong: %+v", p)
	}
}

func TestWriteDot(t *testing.T) {
	tr := mustTrace("dot", []Instr{
		{Class: isa.IntALU},
		{Class: isa.Load, Addr: []int32{0}, MemAddr: 0x40},
		{Class: isa.FPALU, Args: []int32{1}},
		{Class: isa.Store, Addr: []int32{0}, Args: []int32{2}, MemAddr: 0x80},
	})
	var b strings.Builder
	if err := tr.WriteDot(&b, 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph", "n0 -> n1 [style=dashed]", "n1 -> n2;", "n2 -> n3;", "lightblue"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
	// Truncated export must not reference nodes beyond the cut.
	b.Reset()
	if err := tr.WriteDot(&b, 2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "n3") {
		t.Error("truncated dot references dropped nodes")
	}
}

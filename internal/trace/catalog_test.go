package trace_test

import (
	"bytes"
	"slices"
	"testing"

	"daesim/internal/trace"
	"daesim/internal/workloads"
)

// TestCatalogTextRoundTrip: the kernel builder and ReadText write
// through one trace builder, so every catalog workload and a generated
// one read back from their text equal to the kernel-built trace, slab
// for slab and digest for digest.
func TestCatalogTextRoundTrip(t *testing.T) {
	names := append(workloads.Names(), "spec:depth=6,ilp=4,mem=1.5,addr=mixed,hazard=0.2,iters=40,seed=3")
	for _, name := range names {
		built, err := workloads.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := trace.WriteText(&text, built); err != nil {
			t.Fatal(err)
		}
		read, err := trace.ReadText(&text, "unnamed")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameSlabs(read, built) {
			t.Errorf("%s: the text copy's slabs differ from the kernel-built trace's", name)
		}
		if read.Digest() != built.Digest() {
			t.Errorf("%s: the text copy digests differently", name)
		}
	}
}

// sameSlabs compares two traces' names and every slab, through the
// accessors: class, memory address and operand list per instruction.
func sameSlabs(a, b *trace.Trace) bool {
	if a.Name != b.Name || a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if a.Class(i) != b.Class(i) || a.MemAddr(i) != b.MemAddr(i) || !slices.Equal(a.Operands(i), b.Operands(i)) {
			return false
		}
	}
	return true
}

package kernel_test

import (
	"testing"

	"daesim/internal/workloads"
)

// TestBuildAllocs pins the builder's slab allocation: building TRFD
// (about 70k instructions) takes a few dozen allocations — instruction
// chunks, operand slabs and the final copy — not one or more per
// instruction.
func TestBuildAllocs(t *testing.T) {
	n := workloads.TRFD(1).Len()
	avg := testing.AllocsPerRun(3, func() { workloads.TRFD(1) })
	if avg > 64 {
		t.Fatalf("building TRFD (%d instructions) allocates %.0f objects, want <= 64", n, avg)
	}
}

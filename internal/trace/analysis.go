package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"daesim/internal/isa"
)

// ReuseProfile summarizes the line-grain temporal locality of a trace's
// memory reference stream. Distance is measured in distinct lines touched
// between successive references to the same line (LRU stack distance), so
// a fully associative buffer of capacity C captures exactly the
// references with distance < C.
type ReuseProfile struct {
	// Refs is the number of memory references (loads + stores).
	Refs int
	// Lines is the number of distinct cache lines touched.
	Lines int
	// ColdMisses equals Lines (first touches).
	ColdMisses int
	// Distances holds the stack distance of every reuse, ascending.
	Distances []int
}

// HitRate returns the fraction of references a fully associative LRU
// buffer of the given line capacity would capture.
func (p *ReuseProfile) HitRate(capacity int) float64 {
	if p.Refs == 0 {
		return 0
	}
	idx := sort.SearchInts(p.Distances, capacity)
	return float64(idx) / float64(p.Refs)
}

// MedianDistance returns the median reuse distance, or -1 when the trace
// has no reuse at all.
func (p *ReuseProfile) MedianDistance() int {
	if len(p.Distances) == 0 {
		return -1
	}
	return p.Distances[len(p.Distances)/2]
}

// Reuse computes the line-grain LRU stack-distance profile of t's memory
// reference stream in program order.
func (t *Trace) Reuse() *ReuseProfile {
	p := &ReuseProfile{}
	// LRU stack as a slice of lines, most recent last. Quadratic in the
	// worst case but the stack stays short for the locality these traces
	// exhibit; fine for analysis tooling.
	var stack []uint64
	pos := make(map[uint64]int)
	for i, c := range t.class {
		if c != isa.Load && c != isa.Store {
			continue
		}
		p.Refs++
		line := isa.LineOf(t.memAddr[i])
		at, seen := pos[line]
		if !seen {
			p.Lines++
			pos[line] = len(stack)
			stack = append(stack, line)
			continue
		}
		// Distance = number of distinct lines above it in the stack.
		dist := len(stack) - 1 - at
		p.Distances = append(p.Distances, dist)
		// Move to top, shifting the tail down.
		copy(stack[at:], stack[at+1:])
		stack[len(stack)-1] = line
		for j := at; j < len(stack); j++ {
			pos[stack[j]] = j
		}
	}
	p.ColdMisses = p.Lines
	sort.Ints(p.Distances)
	return p
}

// WriteDot writes the dependence graph of up to max instructions as a
// Graphviz digraph: nodes are instructions labelled with class and index,
// solid edges are value dependencies and dashed edges address
// dependencies. Useful for inspecting kernel structure.
func (t *Trace) WriteDot(w io.Writer, max int) error {
	if max <= 0 || max > t.Len() {
		max = t.Len()
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", t.Name)
	for i := 0; i < max; i++ {
		shape := ""
		switch t.class[i] {
		case isa.Load:
			shape = ", style=filled, fillcolor=lightblue"
		case isa.Store:
			shape = ", style=filled, fillcolor=lightgrey"
		case isa.FPALU:
			shape = ", style=filled, fillcolor=lightyellow"
		}
		fmt.Fprintf(bw, "  n%d [label=\"%d %s\"%s];\n", i, i, t.class[i], shape)
		// Operands point backwards, so every edge stays inside the cut.
		for _, p := range t.Addr(i) {
			fmt.Fprintf(bw, "  n%d -> n%d [style=dashed];\n", p, i)
		}
		for _, p := range t.Args(i) {
			fmt.Fprintf(bw, "  n%d -> n%d;\n", p, i)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

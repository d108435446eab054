// Custom workload authoring: build a sparse matrix-vector product kernel
// (gathers through a column-index array) with the kernel builder, compare
// partition policies on the decoupled machine, and measure the bypass
// buffer the paper proposes as future work.
package main

import (
	"fmt"
	"log"

	"daesim"
)

// buildSpMV emits y[r] = sum_j A[r,j] * x[col[r,j]] over a band matrix:
// per element an index load (AU self-load), a value load, a gathered x
// load, and a multiply-accumulate chain.
func buildSpMV(rows, nnzPerRow int) *daesim.Trace {
	b := daesim.NewKernel("spmv")
	colIdx := b.Array("COL", rows*nnzPerRow, 8)
	vals := b.Array("VAL", rows*nnzPerRow, 8)
	x := b.Array("X", rows, 8)
	y := b.Array("Y", rows, 8)
	for r := 0; r < rows; r++ {
		base := b.Int()
		// Integer row bookkeeping (scaling exponent): pure data integer
		// work, so the partition policies place it differently.
		scale := b.Int(b.Int(base))
		var acc daesim.Val
		for j := 0; j < nnzPerRow; j++ {
			k := r*nnzPerRow + j
			col := b.Load(colIdx, k, base) // column index: AU self-load
			xa := b.Int(col)
			xv := b.Load(x, (r+j)%rows, xa) // gathered x element
			av := b.Load(vals, k, base)
			p := b.FP(av, xv)
			if acc.Valid() {
				acc = b.FP(p, acc)
			} else {
				acc = p
			}
		}
		acc = b.FP(acc, scale) // apply the row scaling
		b.Store(y, r, acc, base)
	}
	tr, err := b.Trace()
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

func main() {
	tr := buildSpMV(1200, 8)
	fmt.Printf("custom SpMV kernel: %d instructions\n\n", tr.Len())

	fmt.Println("partition policy comparison (window 64, MD=60):")
	for _, pol := range []daesim.Policy{daesim.Classic, daesim.SliceOnly, daesim.Balance} {
		suite, err := daesim.NewSuite(tr, pol)
		if err != nil {
			log.Fatal(err)
		}
		res, err := suite.RunDM(daesim.Params{Window: 64, MD: 60})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-11s %9d cycles  (AU ops %d, DU ops %d, copies %d)\n",
			pol, res.Cycles,
			suite.Assignment().OpsAU, suite.Assignment().OpsDU, res.Copies())
	}

	suite, err := daesim.NewSuite(tr, daesim.Classic)
	if err != nil {
		log.Fatal(err)
	}
	base, err := suite.RunDM(daesim.Params{Window: 64, MD: 60})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbypass buffer (the paper's future work):")
	fmt.Printf("  %-11s %9d cycles\n", "none", base.Cycles)
	for _, lines := range []int{32, 128, 512} {
		bp, err := daesim.BypassSpec(lines)
		if err != nil {
			log.Fatal(err)
		}
		res, err := suite.RunDM(daesim.Params{Window: 64, MD: 60, Mem: bp})
		if err != nil {
			log.Fatal(err)
		}
		hit := float64(res.MemHits) / float64(res.Fills)
		fmt.Printf("  %4d lines  %9d cycles  (hit rate %.0f%%)\n", lines, res.Cycles, 100*hit)
	}
}

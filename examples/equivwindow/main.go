// Equivalent-window study (the paper's Figures 7-9): how much larger
// must the superscalar's single window be to match the decoupled machine?
// The ratio grows with memory latency and shrinks as the DM window grows.
package main

import (
	"fmt"
	"log"

	"daesim"
)

func main() {
	tr, err := daesim.Workload("MDG", 1)
	if err != nil {
		log.Fatal(err)
	}
	suite, err := daesim.NewSuite(tr, daesim.Classic)
	if err != nil {
		log.Fatal(err)
	}
	// One memoizing runner for the whole table: overlapping probes are
	// simulated once.
	runner := daesim.NewRunner(suite)

	mds := []int{0, 20, 40, 60}
	windows := []int{10, 20, 40, 60, 80, 100}

	fmt.Println("MDG: SWSM window needed to match the DM, as a ratio of the DM window")
	fmt.Printf("\n%-10s", "DM window")
	for _, md := range mds {
		fmt.Printf("  md=%-5d", md)
	}
	fmt.Println()
	for _, w := range windows {
		fmt.Printf("%-10d", w)
		for _, md := range mds {
			ratio, ok, err := daesim.EquivalentWindowRatio(runner, daesim.Params{Window: w, MD: md})
			if err != nil {
				log.Fatal(err)
			}
			if !ok {
				fmt.Printf("  %-7s", ">cap")
				continue
			}
			fmt.Printf("  %-7.2f", ratio)
		}
		fmt.Println()
	}
	fmt.Println("\nAt MD=60 and realistic windows the SWSM needs a window roughly")
	fmt.Println("2x-4x larger — window logic delay grows quadratically with size")
	fmt.Println("(Palacharla et al.), which is the paper's complexity argument.")
}

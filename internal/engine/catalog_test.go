package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/partition"
	"daesim/internal/workloads"
)

// TestOrbitSkipCatalog holds the steady-state skip to the never-skipping
// reference on every catalog workload, both machines, windows 8, 64 and
// 512 and MD 0 and 60: the programs and configurations the paper's
// figures are made of. The DM also runs at windows 4, 16 and 32, where
// its AU runs furthest ahead: six of the seven DM programs split into
// one pass per unit there, and TRACK, whose DU feeds its AU, takes the
// joint path.
func TestOrbitSkipCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reference engine over the catalog")
	}
	sim := engine.NewSim()
	for _, spec := range workloads.Catalog() {
		tr, err := workloads.Build(spec.Name, 1)
		if err != nil {
			t.Fatal(err)
		}
		suite, err := machine.NewSuite(tr, partition.Classic)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []machine.Kind{machine.DM, machine.SWSM} {
			prog, err := suite.Program(kind)
			if err != nil {
				t.Fatal(err)
			}
			windows := []int{8, 64, 512}
			if kind == machine.DM {
				windows = []int{4, 8, 16, 32, 64, 512}
			}
			for _, w := range windows {
				for _, md := range []int{0, 60} {
					name := fmt.Sprintf("%s/%v/w=%d/md=%d", spec.Name, kind, w, md)
					p := machine.Params{Window: w, MD: md}
					cfg, err := p.Config(kind)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sim.Run(prog, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					// A fresh config: the reference must not share the
					// memory model's queue state.
					if cfg, err = p.Config(kind); err != nil {
						t.Fatal(err)
					}
					want, err := engine.ReferenceRun(prog, cfg)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					// Whole Results, as the package's resultsEqual compares
					// them: a field added to Result is compared by
					// construction.
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: result mismatch:\n engine:    %+v\n reference: %+v", name, got, want)
					}
				}
			}
		}
	}
}

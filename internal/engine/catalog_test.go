package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/memsys"
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

// TestLowerBoundCatalog holds the certified lower bound to its full
// recurrence and below ReferenceRun on every catalog SWSM program, at
// windows 8, 64, 512 and unlimited, MD 0 and 60, under the default
// configuration, held sends, retirement at completion and an explicit
// and an unbounded memory queue. The bypass buffer and the cache
// hierarchy, which can answer before MD, have no bound.
func TestLowerBoundCatalog(t *testing.T) {
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
		prog, err := suite.Program(machine.SWSM)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{8, 64, 512, 0} {
			for _, md := range []int{0, 60} {
				base := machine.Params{Window: w, MD: md}
				hold, atComplete, queue, unbounded := base, base, base, base
				hold.HoldSendSlots = true
				atComplete.Retire = machine.RetireAtComplete
				queue.MemQueue = 16
				unbounded.MemQueue = machine.Unbounded
				for _, v := range []struct {
					name string
					p    machine.Params
				}{{"default", base}, {"hold", hold}, {"at-complete", atComplete}, {"queue=16", queue}, {"unbounded", unbounded}} {
					vname, p := v.name, v.p
					name := fmt.Sprintf("%s/w=%d/md=%d/%s", spec.Name, w, md, vname)
					cfg, err := p.Config(machine.SWSM)
					if err != nil {
						t.Fatal(err)
					}
					lb := sim.LowerBound(prog, cfg)
					if want := engine.ReferenceLowerBound(prog, cfg); lb != want {
						t.Errorf("%s: skipping bound %d, full recurrence %d", name, lb, want)
					}
					if lb <= 0 {
						t.Errorf("%s: no bound", name)
					}
					res, err := engine.ReferenceRun(prog, cfg)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if lb > res.Cycles {
						t.Errorf("%s: lower bound %d above %d cycles", name, lb, res.Cycles)
					}
				}
			}
		}
		for _, spec := range []memsys.Spec{mustSpec(memsys.BypassSpec(64)), memsys.DefaultCacheSpec()} {
			cfg, err := machine.Params{Window: 64, MD: 60, Mem: spec}.Config(machine.SWSM)
			if err != nil {
				t.Fatal(err)
			}
			if lb := sim.LowerBound(prog, cfg); lb != 0 {
				t.Errorf("%s/mem=%v: bound %d, want 0", spec.String(), spec, lb)
			}
		}
	}
}

func mustSpec(s memsys.Spec, err error) memsys.Spec {
	if err != nil {
		panic(err)
	}
	return s
}

// BenchmarkReferenceRun times the oracle on one catalog program, MDG's
// DM at window 64 and MD 60.
func BenchmarkReferenceRun(b *testing.B) {
	tr, err := workloads.Build("MDG", 1)
	if err != nil {
		b.Fatal(err)
	}
	suite, err := machine.NewSuite(tr, partition.Classic)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := suite.Program(machine.DM)
	if err != nil {
		b.Fatal(err)
	}
	p := machine.Params{Window: 64, MD: 60}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg, err := p.Config(machine.DM)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.ReferenceRun(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

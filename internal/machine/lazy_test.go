package machine

import (
	"reflect"
	"sync"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/isa"
	"daesim/internal/partition"
	"daesim/internal/workloads"
)

// loweringsSince returns how many DM and SWSM programs were lowered
// since a Lowerings snapshot.
func loweringsSince(dm0, swsm0 int64) (dm, swsm int64) {
	dm, swsm = Lowerings()
	return dm - dm0, swsm - swsm0
}

// TestRunCountsMatchPrograms: every op issues once, so a run's Ops is
// its program's length and each DM core's issued copies are the copies
// its unit holds in the DM program, for every guarded workload under
// every policy. These are the op and copy counts the code-expansion (C4)
// and partition-policy (P1) studies print.
func TestRunCountsMatchPrograms(t *testing.T) {
	p := Params{Window: 64, MD: 60}
	for _, name := range guardWorkloads() {
		tr, err := workloads.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range partition.Policies() {
			s, err := NewSuite(tr, pol)
			if err != nil {
				t.Fatal(err)
			}
			id := name + " " + pol.String()
			for _, kind := range []Kind{DM, SWSM} {
				res, err := s.Run(kind, p)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := s.Program(kind)
				if err != nil {
					t.Fatal(err)
				}
				if res.Ops != prog.Len() {
					t.Errorf("%s %v: run issued %d ops, program has %d", id, kind, res.Ops, prog.Len())
				}
				if kind != DM {
					continue
				}
				var copies [2]int64
				for _, op := range prog.Ops() {
					if op.Kind == isa.OpCopy {
						copies[op.Unit]++
					}
				}
				for u, cs := range res.Cores {
					if got := cs.IssuedByKind[isa.OpCopy]; got != copies[u] {
						t.Errorf("%s: %v issued %d copies, DM program holds %d there", id, isa.Unit(u), got, copies[u])
					}
				}
			}
		}
	}
}

// TestSuiteLowersOnFirstRun: building, repartitioning, keying and
// reading the assignment of a suite lower nothing; the first run of a
// kind lowers that kind's program once, and a repartitioned suite
// shares the SWSM program it came with.
func TestSuiteLowersOnFirstRun(t *testing.T) {
	tr, err := workloads.Build("TRACK", 1)
	if err != nil {
		t.Fatal(err)
	}
	dm0, sw0 := Lowerings()
	s, err := NewSuite(tr, partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	re, err := s.Repartition(partition.SliceOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Suite{s, re} {
		x.Fingerprint()
		x.Assignment()
	}
	if dm, sw := loweringsSince(dm0, sw0); dm != 0 || sw != 0 {
		t.Fatalf("NewSuite, Repartition, Fingerprint and Assignment lowered %d DM and %d SWSM programs, want none", dm, sw)
	}
	p := Params{Window: 16, MD: 60}
	for i := 0; i < 2; i++ {
		if _, err := s.RunWith(nil, DM, p); err != nil {
			t.Fatal(err)
		}
	}
	if dm, sw := loweringsSince(dm0, sw0); dm != 1 || sw != 0 {
		t.Fatalf("two DM runs lowered %d DM and %d SWSM programs, want 1 and 0", dm, sw)
	}
	for _, x := range []*Suite{s, re} {
		if _, err := x.RunWith(nil, SWSM, p); err != nil {
			t.Fatal(err)
		}
	}
	if dm, sw := loweringsSince(dm0, sw0); dm != 1 || sw != 1 {
		t.Fatalf("SWSM runs on a suite and its repartition lowered %d DM and %d SWSM programs, want 1 and 1", dm, sw)
	}
}

// TestConcurrentFirstRuns: goroutines that make the first runs of a
// fresh suite and of a repartition sharing its SWSM program at once
// wait for one lowering per program, and all see the results a serial
// suite gives.
func TestConcurrentFirstRuns(t *testing.T) {
	tr, err := workloads.Build("MDG", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Window: 32, MD: 60}
	type run struct {
		pol  partition.Policy
		kind Kind
	}
	runs := []run{{partition.Classic, DM}, {partition.Classic, SWSM}, {partition.Balance, DM}, {partition.Balance, SWSM}}
	want := make([]*engine.Result, len(runs))
	for i, r := range runs {
		s, err := NewSuite(tr, r.pol)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = s.RunWith(nil, r.kind, p); err != nil {
			t.Fatal(err)
		}
	}

	dm0, sw0 := Lowerings()
	base, err := NewSuite(tr, partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	re, err := base.Repartition(partition.Balance)
	if err != nil {
		t.Fatal(err)
	}
	suites := map[partition.Policy]*Suite{partition.Classic: base, partition.Balance: re}
	const n = 8
	got := make([][]*engine.Result, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = make([]*engine.Result, len(runs))
			for k := range runs {
				// Goroutines walk the runs from different offsets, so every
				// program's first run races with the others.
				i := (g + k) % len(runs)
				got[g][i], errs[g] = suites[runs[i].pol].RunWith(nil, runs[i].kind, p)
				if errs[g] != nil {
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 0; g < n; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, r := range runs {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Errorf("goroutine %d, %v %v: concurrent first runs give %+v, a serial suite %+v", g, r.pol, r.kind, got[g][i], want[i])
			}
		}
	}
	if dm, sw := loweringsSince(dm0, sw0); dm != 2 || sw != 1 {
		t.Errorf("concurrent first runs lowered %d DM and %d SWSM programs, want 2 and 1 (the repartition shares the SWSM program)", dm, sw)
	}
}

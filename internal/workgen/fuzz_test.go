package workgen

import (
	"reflect"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/machine"
	"daesim/internal/partition"
)

// FuzzSpecParse hardens the spec grammar against arbitrary input: Parse
// must reject malformed text with an error — never panic — and every
// spec it accepts must round-trip through the canonical Format
// unchanged (the identity the workload registry canonicalizes names
// with). Seed corpus under testdata/fuzz/FuzzSpecParse; CI gives it a
// short live-fuzz window on every PR next to the batch-body fuzzers.
func FuzzSpecParse(f *testing.F) {
	for _, s := range []string{
		"",
		"depth=8,ilp=4,mem=0.4,addr=gather,hazard=0.1,iters=256,seed=7",
		"depth=64,ilp=64,mem=4,iters=65536",
		"addr=mixed,seed=18446744073709551615",
		"depth==1,,ilp", "mem=1e308,hazard=nan", "seed=-1", "addr=@", "depth=4,depth=4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := Parse(s)
		if err != nil {
			return
		}
		again, err := Parse(spec.Format())
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not parse: %v", spec.Format(), s, err)
		}
		if again != spec {
			t.Fatalf("canonical round trip changed the spec: %q -> %+v -> %+v", s, spec, again)
		}
	})
}

// FuzzWorkgenDifferential is the generator's payoff as an engine
// verifier: every exec builds a random valid spec, lowers it for both
// machines, and runs a random configuration through the
// structure-of-arrays engine and the retained seed oracle
// (engine.ReferenceRun). Results must be bit-identical, the certified
// lower bound (engine.Program.LowerBound) must not exceed the cycles,
// and two machine-level invariants must hold — cycles are monotone
// non-decreasing as the window shrinks (asserted at unlimited issue
// width, where the Graham scheduling anomaly cannot bite), and the DM
// never beats the ideal-trace dataflow bound. CI runs this for at
// least 60s per PR, sweeping a workload space the seven hand-built
// kernels only sample.
func FuzzWorkgenDifferential(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(10), uint8(0), uint8(2), uint8(12), uint64(1), uint8(24), uint8(60))
	f.Add(uint8(8), uint8(3), uint8(5), uint8(1), uint8(0), uint8(8), uint64(7), uint8(8), uint8(0))
	f.Add(uint8(2), uint8(4), uint8(15), uint8(2), uint8(10), uint8(16), uint64(3), uint8(64), uint8(30))
	f.Add(uint8(6), uint8(1), uint8(0), uint8(3), uint8(5), uint8(20), uint64(11), uint8(4), uint8(10))
	f.Fuzz(func(t *testing.T, depthB, ilpB, mem10, shapeB, haz10, itersB uint8, seed uint64, windowB, mdB uint8) {
		spec := fuzzSpec(t, depthB, ilpB, mem10, shapeB, haz10, itersB, seed)
		tr := spec.Generate(1)
		suite, err := machine.NewSuite(tr, partition.Policy(0))
		if err != nil {
			t.Fatalf("spec %q: lowering: %v", spec.Format(), err)
		}
		window := 4 + int(windowB)%97
		md := int(mdB) % 61
		p := machine.Params{Window: window, MD: md}

		// Oracle differential: Sim result bit-identical to the seed
		// engine, on both machines.
		for _, kind := range []machine.Kind{machine.DM, machine.SWSM} {
			got, err := suite.Run(kind, p)
			if err != nil {
				t.Fatalf("spec %q %v: %v", spec.Format(), kind, err)
			}
			cfg, err := p.Config(kind)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := suite.Program(kind)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.ReferenceRun(prog, cfg)
			if err != nil {
				t.Fatalf("spec %q %v: reference: %v", spec.Format(), kind, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("spec %q %v window=%d md=%d: engine diverges from reference:\n engine:    %+v\n reference: %+v",
					spec.Format(), kind, window, md, got, want)
			}
			// The certified lower bound a search prunes by never
			// exceeds the simulated time.
			if lb := prog.LowerBound(cfg); lb > got.Cycles {
				t.Errorf("spec %q %v window=%d md=%d: lower bound %d above %d cycles", spec.Format(), kind, window, md, lb, got.Cycles)
			}
		}

		// Invariant: shrinking the window never lowers cycles. Only
		// asserted at unlimited issue width and unbounded memory queue —
		// at finite width the Graham scheduling anomaly legitimately lets
		// a smaller window win (see TestRetireInOrderNeverFaster).
		wide := machine.Params{
			Window: window, MD: md, MemQueue: machine.Unbounded,
			AUWidth: 1 << 20, DUWidth: 1 << 20, Width: 1 << 20,
		}
		wider := wide
		wider.Window = 2 * window
		for _, kind := range []machine.Kind{machine.DM, machine.SWSM} {
			small, err := suite.Run(kind, wide)
			if err != nil {
				t.Fatal(err)
			}
			big, err := suite.Run(kind, wider)
			if err != nil {
				t.Fatal(err)
			}
			if big.Cycles > small.Cycles {
				t.Errorf("spec %q %v md=%d: window %d is slower than window %d (%d > %d cycles) at unlimited width",
					spec.Format(), kind, md, 2*window, window, big.Cycles, small.Cycles)
			}
		}

		// Invariant: the DM never beats the ideal-trace dataflow bound.
		unlimited := machine.Params{Window: 0, MD: md, MemQueue: machine.Unbounded,
			AUWidth: 1 << 20, DUWidth: 1 << 20}
		dm, err := suite.Run(machine.DM, unlimited)
		if err != nil {
			t.Fatal(err)
		}
		if lb := tr.CriticalPath(unlimited.Timing()); dm.Cycles < lb {
			t.Errorf("spec %q md=%d: DM at unlimited window ran %d cycles, below the dataflow bound %d",
				spec.Format(), md, dm.Cycles, lb)
		}
	})
}

// fuzzSpec clamps fuzzed bytes into a valid small spec.
func fuzzSpec(t *testing.T, depthB, ilpB, mem10, shapeB, haz10, itersB uint8, seed uint64) Spec {
	t.Helper()
	spec := Spec{
		Depth:  1 + int(depthB%8),
		ILP:    1 + int(ilpB%4),
		Mem:    float64(mem10%16) / 10,
		Addr:   Shape(shapeB % 4),
		Hazard: float64(haz10%11) / 10,
		Iters:  4 + int(itersB%21),
		Seed:   seed,
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("clamped spec %q invalid: %v", spec.Format(), err)
	}
	return spec
}

// FuzzRepartition: a repartitioned suite is the suite built from
// scratch under its policy. Suite.Repartition reuses the receiver's
// address slice and SWSM program and redoes only the unit assignment;
// for every base and target policy the result must equal
// machine.NewSuite's in Assignment and Fingerprint (the store key),
// which together fix the DM lowering, and the shared slice must come
// out unchanged.
func FuzzRepartition(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(10), uint8(0), uint8(2), uint8(12), uint64(1))
	f.Add(uint8(8), uint8(3), uint8(5), uint8(1), uint8(0), uint8(8), uint64(7))
	f.Add(uint8(2), uint8(4), uint8(15), uint8(2), uint8(10), uint8(16), uint64(3))
	f.Add(uint8(6), uint8(1), uint8(0), uint8(3), uint8(5), uint8(20), uint64(11))
	f.Fuzz(func(t *testing.T, depthB, ilpB, mem10, shapeB, haz10, itersB uint8, seed uint64) {
		spec := fuzzSpec(t, depthB, ilpB, mem10, shapeB, haz10, itersB, seed)
		tr := spec.Generate(1)
		fresh := map[partition.Policy]*machine.Suite{}
		for _, pol := range partition.Policies() {
			s, err := machine.NewSuite(tr, pol)
			if err != nil {
				t.Fatalf("spec %q %v: %v", spec.Format(), pol, err)
			}
			fresh[pol] = s
		}
		for _, from := range partition.Policies() {
			slice := append([]bool(nil), fresh[from].Assignment().InAddrSlice...)
			for _, to := range partition.Policies() {
				re, err := fresh[from].Repartition(to)
				if err != nil {
					t.Fatalf("spec %q %v→%v: %v", spec.Format(), from, to, err)
				}
				want := fresh[to]
				if !reflect.DeepEqual(re.Assignment(), want.Assignment()) {
					t.Errorf("spec %q %v→%v: assignment differs from NewSuite's", spec.Format(), from, to)
				}
				if re.Fingerprint() != want.Fingerprint() {
					t.Errorf("spec %q %v→%v: fingerprint %s, NewSuite %s", spec.Format(), from, to, re.Fingerprint(), want.Fingerprint())
				}
			}
			if !reflect.DeepEqual(fresh[from].Assignment().InAddrSlice, slice) {
				t.Errorf("spec %q: repartitioning changed the %v suite's address slice", spec.Format(), from)
			}
		}
	})
}

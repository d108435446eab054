package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"daesim/internal/isa"
)

// resultsEqual is the oracle comparison every differential test funnels
// through. It must stay structural over whole Results (daelint's
// schemaguard audits it for reflect.DeepEqual): a field added to Result
// or CoreStats is then compared by construction, with no field list to
// forget to extend.
func resultsEqual(got, want *Result) bool {
	return reflect.DeepEqual(got, want)
}

// randomConfig draws a core configuration like the quick-check property
// tests use, plus occasional engine-mode flags, so the differential test
// covers every code path of the event loop.
func randomConfig(rng *rand.Rand, units int) Config {
	cores := make([]isa.CoreConfig, units)
	for i := range cores {
		w := rng.Intn(20) // 0 = unlimited
		width := 1 + rng.Intn(6)
		if rng.Intn(4) == 0 {
			// Effectively unlimited width: the ready bitmap drains whole
			// each cycle, against the reference's heap-ordered issue.
			width = 1 << 20
		}
		cores[i] = isa.CoreConfig{Window: w, IssueWidth: width}
	}
	cfg := Config{
		Timing:        tm(rng.Intn(70)),
		Cores:         cores,
		CollectESW:    rng.Intn(2) == 0,
		HoldSendSlots: rng.Intn(3) == 0,
		RetireInOrder: rng.Intn(3) == 0,
	}
	if rng.Intn(3) == 0 {
		cfg.Mem = &delayMem{md: int64(rng.Intn(40))}
	}
	return cfg
}

// TestCalendarQueueMatchesReference differentially tests the
// calendar-queue engine against the seed's map-and-heap implementation:
// every field of the Result must be bit-identical across random
// programs, configurations and memory models.
func TestCalendarQueueMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		units := 1 + rng.Intn(2)
		p := randomProgram(rng, 20+rng.Intn(180), units)
		cfg := randomConfig(rng, units)
		got, gotErr := Run(p, cfg)
		// The reference must see the same memory-model state; Run resets
		// the model, and ReferenceRun resets it again before use.
		want, wantErr := ReferenceRun(p, cfg)
		if (gotErr == nil) != (wantErr == nil) {
			t.Logf("seed=%d: error mismatch: %v vs %v", seed, gotErr, wantErr)
			return false
		}
		if gotErr != nil {
			return true
		}
		if !resultsEqual(got, want) {
			t.Logf("seed=%d: result mismatch:\n calendar: %+v\n reference: %+v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestFarEventOverflow drives events far beyond the wheel horizon (huge
// MD, and a memory model that delays arrivals past any horizon) through
// both engines.
func TestFarEventOverflow(t *testing.T) {
	p := twoUnitProgram(40)
	cores := []isa.CoreConfig{{Window: 6, IssueWidth: 4}, {Window: 6, IssueWidth: 5}}
	for _, cfg := range []Config{
		{Timing: isa.Timing{MD: 100_000, FPLat: 3, CopyLat: 1}, Cores: cores},
		{Timing: tm(30), Cores: cores, Mem: &delayMem{md: 50_000}},
		{Timing: isa.Timing{MD: 9000, FPLat: 3, CopyLat: 1}, Cores: cores, HoldSendSlots: true},
	} {
		got := mustRun(t, p, cfg)
		want, err := ReferenceRun(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) {
			t.Fatalf("md=%d: mismatch:\n calendar: %+v\n reference: %+v", cfg.Timing.MD, got, want)
		}
	}
}

// TestWidePathMatchesReference pins issue widths that never bind
// differentially on deterministic configurations: the ready bitmap,
// drained whole each cycle, must match the reference's heap-ordered
// issue bit for bit, including under in-order retirement, finite
// windows with width at or above the window, and a stateful custom
// memory model.
func TestWidePathMatchesReference(t *testing.T) {
	progs := []*Program{twoUnitProgram(60), randomProgram(rand.New(rand.NewSource(42)), 200, 2)}
	cores := func(w, width int) []isa.CoreConfig {
		return []isa.CoreConfig{{Window: w, IssueWidth: width}, {Window: w, IssueWidth: width}}
	}
	cfgs := []Config{
		// Unlimited window and width: pure batched dataflow issue.
		{Timing: tm(60), Cores: cores(0, 1<<20)},
		// Finite window, width >= window: wide by the window bound.
		{Timing: tm(30), Cores: cores(8, 8)},
		// Wide plus in-order retirement.
		{Timing: tm(60), Cores: cores(16, 1<<20), RetireInOrder: true},
		// Wide plus a stateful memory model and ESW sampling.
		{Timing: tm(20), Cores: cores(12, 64), Mem: &delayMem{md: 35}, CollectESW: true},
		// Wide core next to a narrow core.
		{Timing: tm(40), Cores: []isa.CoreConfig{{Window: 10, IssueWidth: 1 << 20}, {Window: 10, IssueWidth: 2}}},
		// Narrow everything, as a control for the harness itself.
		{Timing: tm(50), Cores: cores(6, 2), RetireInOrder: true},
	}
	for _, p := range progs {
		for ci, cfg := range cfgs {
			got := mustRun(t, p, cfg)
			want, err := ReferenceRun(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) {
				t.Errorf("%s cfg %d: mismatch:\n engine:    %+v\n reference: %+v", p.Name, ci, got, want)
			}
		}
	}
}

// TestSimRunsAreIdentical asserts the documented determinism guarantee
// at full Result granularity: two runs of the same program and
// configuration — on fresh and on warm scratch — are bit-identical.
func TestSimRunsAreIdentical(t *testing.T) {
	p := twoUnitProgram(100)
	cfg := Config{Timing: tm(30), Cores: []isa.CoreConfig{{Window: 8, IssueWidth: 4}, {Window: 8, IssueWidth: 5}}, CollectESW: true}
	fresh, err := NewSim().Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim()
	// Warm the scratch on a different program and config first.
	if _, err := sim.Run(intChain(300), Config{Timing: tm(5), Cores: oneCore(4, 2), RetireInOrder: true}); err != nil {
		t.Fatal(err)
	}
	warm, err := sim.Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(fresh, warm) {
		t.Fatalf("warm scratch changed the result:\n fresh: %+v\n warm: %+v", fresh, warm)
	}
}

// TestSimReuseAllocs pins the zero-allocation property of the reused
// scratch path: after warm-up, a run allocates only the Result it
// returns (Result, Cores slice, per-core IssueHist). The decoupled
// two-unit loop splits into one pass per unit and both passes skip; the
// one-core loop skips too; their snapshots and time tables live in the
// Sim's scratch. The coupled loop, whose last AU op reads a DU value,
// keeps the joint path pinned: it cannot split, and its AU's growing
// lead keeps the joint state from repeating.
func TestSimReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	twoCores := []isa.CoreConfig{{Window: 64, IssueWidth: 4}, {Window: 64, IssueWidth: 5}}
	for _, tc := range []struct {
		p           *Program
		cfg         Config
		split, skip bool
	}{
		{twoUnitProgram(200), Config{Timing: tm(60), Cores: twoCores}, true, true},
		{coupledProgram(200), Config{Timing: tm(60), Cores: twoCores}, false, false},
		{swsmLoop(400), Config{Timing: tm(60), Cores: []isa.CoreConfig{{Window: 32, IssueWidth: 4}}}, false, true},
	} {
		sim := NewSim()
		avg := testing.AllocsPerRun(20, func() {
			if _, err := sim.Run(tc.p, tc.cfg); err != nil {
				t.Fatal(err)
			}
		})
		// 4 = Result + Cores + 2 IssueHist; allow a little headroom for
		// runtime-internal noise.
		if avg > 8 {
			t.Errorf("%s: reused-scratch run allocates %.0f objects, want <= 8", tc.p.Name, avg)
		}
		if st := sim.orb.stats; st.split != tc.split || (st.skipped != [2]int{}) != tc.skip {
			t.Errorf("%s: split %v, skipped %v ops; want split %v, skip %v", tc.p.Name, st.split, st.skipped, tc.split, tc.skip)
		}
	}
}

// coupledProgram is twoUnitProgram with one more AU op that reads the
// DU's last value: a loss of decoupling, so Run simulates it jointly.
func coupledProgram(n int) *Program {
	p := twoUnitProgram(n)
	ops := append(p.Ops(), Op{Kind: isa.OpInt, Unit: isa.AU, Srcs: []int32{int32(p.Len() - 1)}, MemSrc: NoDep, Orig: int32(2 * n)})
	return MustProgram("coupled", ops, 2, 2*n+1)
}

// TestPooledRunAllocs asserts the compatibility wrapper inherits the
// reuse through the pool.
func TestPooledRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	p := twoUnitProgram(200)
	cfg := Config{Timing: tm(60), Cores: []isa.CoreConfig{{Window: 64, IssueWidth: 4}, {Window: 64, IssueWidth: 5}}}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := Run(p, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 10 {
		t.Fatalf("pooled run allocates %.0f objects, want <= 10", avg)
	}
}

package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"daesim/internal/isa"
	"daesim/internal/memsys"
)

// boundHolds computes the bound of p under cfg on sim and checks it
// against the oracle and against ReferenceRun's Cycles. It returns the
// ops the bound skipped.
func boundHolds(t *testing.T, sim *Sim, p *Program, cfg Config) (skipped int) {
	t.Helper()
	lb := sim.LowerBound(p, cfg)
	if want := ReferenceLowerBound(p, cfg); lb != want {
		t.Errorf("%s (%d ops, period %+v): skipping bound %d, full recurrence %d", p.Name, p.Len(), *p.orbitPeriod(), lb, want)
	}
	res, err := ReferenceRun(p, cfg)
	if err != nil {
		return sim.lb.skipped
	}
	if lb > res.Cycles {
		t.Errorf("%s (%d ops): lower bound %d above the reference's %d cycles", p.Name, p.Len(), lb, res.Cycles)
	}
	return sim.lb.skipped
}

// TestLowerBoundMatchesOracle holds the bound to its full recurrence and
// below ReferenceRun over random one-core tiled programs and
// configurations, and checks that it skips on most of them.
func TestLowerBoundMatchesOracle(t *testing.T) {
	sim := NewSim()
	runs, fired := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := tiledProgram(rng.Intn, 1, false)
		if boundHolds(t, sim, p, tiledConfig(rng.Intn, 1, false)) > 0 {
			fired++
		}
		runs++
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if 2*fired < runs {
		t.Errorf("the bound skipped on %d of %d tiled programs, want most", fired, runs)
	}
	t.Logf("the bound skipped on %d of %d tiled programs", fired, runs)
}

// TestLowerBoundFallsBack pins where there is no bound: ESW sampling,
// two units, and memory models that may answer before MD.
func TestLowerBoundFallsBack(t *testing.T) {
	p := swsmLoop(400)
	cores := []isa.CoreConfig{{Window: 16, IssueWidth: 4}}
	bypass, err := memsys.NewBypass(30, 4)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := memsys.NewHierarchy(30, memsys.DefaultCacheSpec().CacheLevels()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Timing: tm(30), Cores: cores, CollectESW: true},
		{Timing: tm(30), Cores: cores, Mem: &delayMem{md: 30}},
		{Timing: tm(30), Cores: cores, Mem: bypass},
		{Timing: tm(30), Cores: cores, Mem: cache},
	} {
		if lb := p.LowerBound(cfg); lb != 0 {
			t.Errorf("esw=%v mem=%T: bound %d, want 0", cfg.CollectESW, cfg.Mem, lb)
		}
	}
	two := twoUnitProgram(50)
	if lb := two.LowerBound(Config{Timing: tm(30), Cores: []isa.CoreConfig{{Window: 8, IssueWidth: 4}, {Window: 8, IssueWidth: 5}}}); lb != 0 {
		t.Errorf("two-unit program: bound %d, want 0", lb)
	}
	if lb := p.LowerBound(Config{Timing: tm(30), Cores: cores, RetireInOrder: true}); lb == 0 {
		t.Error("the periodic control run has no bound")
	}
}

// TestLowerBoundReuseAllocs pins that a reused Sim's bound allocates
// nothing: its rings and samples live in the Sim's scratch.
func TestLowerBoundReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	p := swsmLoop(400)
	cfg := Config{Timing: tm(60), Cores: []isa.CoreConfig{{Window: 32, IssueWidth: 4}}, RetireInOrder: true}
	sim := NewSim()
	sim.LowerBound(p, cfg)
	if avg := testing.AllocsPerRun(20, func() { sim.LowerBound(p, cfg) }); avg != 0 {
		t.Errorf("a reused Sim's bound allocates %.0f objects, want 0", avg)
	}
	if sim.lb.skipped == 0 {
		t.Error("the periodic control bound skipped nothing")
	}
}

// FuzzLowerBound builds a one-core tiled program and configuration from
// the fuzz bytes and checks the skipping bound against its full
// recurrence and against ReferenceRun.
func FuzzLowerBound(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 9, 3, 1, 0, 30, 2, 5, 1, 7, 0, 3, 2, 40, 1})
	sim := NewSim()
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := byteDraw(data)
		p := tiledProgram(draw, 1, false)
		boundHolds(t, sim, p, tiledConfig(draw, 1, false))
	})
}

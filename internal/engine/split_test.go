package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"daesim/internal/isa"
)

// TestSplitMatchesReference holds the decoupled split to the joint,
// never-skipping reference over random decoupled tiled programs and
// configurations: Outstanding queues, a bypass buffer, held sends and
// both retirement policies. Every Result must be bit-identical, most
// runs must split, and the DU pass must jump more than once on some,
// as it does when the AU's times stop repeating for a while. First it
// runs the jumpRecordCases, each of which must do what it is named for.
func TestSplitMatchesReference(t *testing.T) {
	for _, c := range jumpRecordCases {
		sim := NewSim()
		p, ok := splitMatchesReference(t, sim, splitCase(c.seed))
		if ok && !c.does(sim, p) {
			t.Errorf("%s (seed %d): skip %+v, AU jump %+v does not", c.name, c.seed, sim.orb.stats, sim.jump)
		}
	}
	runs, split, skipped, rejumps := 0, 0, 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := tiledProgram(rng.Intn, 2, true)
		st, ok := skipMatchesReference(t, p, tiledConfig(rng.Intn, 2, true))
		runs++
		if st.split {
			split++
		}
		if st.skipped != [2]int{} {
			skipped++
		}
		if st.jumps[1] > 1 {
			rejumps++
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if 2*split < runs {
		t.Errorf("%d of %d decoupled programs split, want most", split, runs)
	}
	if rejumps == 0 {
		t.Errorf("the DU pass never jumped twice in %d runs", runs)
	}
	t.Logf("%d runs: %d split, %d skipped, %d with a DU pass that jumped more than once", runs, split, skipped, rejumps)
}

// jumpRecordCases are decoupled tiled programs, given by the seed of
// their fuzz input (splitCase), whose DU pass reads the AU's jump
// record (auJump) where it is easiest to get wrong. In both the AU pass
// jumps once.
var jumpRecordCases = []struct {
	name string
	seed int64
	does func(*Sim, *Program) bool
}{
	// The AU's times stop repeating within the DU's first jump, which
	// therefore stops short (extRepeats returns less than it asked),
	// and the DU pass jumps again later.
	{"DU jumps part of the way, then again", 654, func(s *Sim, _ *Program) bool {
		return s.orb.stats.jumps == [2]int{1, 2}
	}},
	// The DU pass's one jump starts inside the AU's jumped stretch and
	// lands past its end, so the replays it checks read AU times that
	// auTime resolves and, further on, times the AU pass wrote. Those
	// do not follow the AU's orbit here: stepping a replay's input by
	// the orbit's cycles past the stretch's end gives a wrong Result.
	{"DU replays straddle the end of the AU's jump", 2301, func(s *Sim, p *Program) bool {
		st, g := &s.orb.stats, s.jump
		if st.jumps != [2]int{1, 1} {
			return false
		}
		per := p.orbitPeriod()
		d := st.orbit[1]
		from := st.landed[1] - int32(st.skipped[1])/(d/per.p*per.cnt[1])*d
		return g.lo <= from && from < g.hi && g.hi < st.landed[1]
	}},
}

// TestSplitTimesWritten pins the split's bookkeeping to the ops its
// passes simulate, on the jumpRecordCases. Inside its jumped stretch,
// whose times auTime resolves, the AU pass writes times only for the
// ops its window held unissued when it jumped and those within reach
// above them; the DU pass sets up an external time only for each op it
// dispatches, so the DU ops it jumps over get none. The split's scratch
// starts out holding math.MinInt64, which nothing it records equals.
func TestSplitTimesWritten(t *testing.T) {
	for _, c := range jumpRecordCases {
		draw := byteDraw(splitCase(c.seed))
		p := tiledProgram(draw, 2, true)
		cfg := tiledConfig(draw, 2, true)
		sim := NewSim()
		n := len(p.kinds)
		sim.tDone, sim.tFill = make([]int64, n), make([]int64, n)
		for x := 0; x < n; x++ {
			sim.tDone[x], sim.tFill[x] = math.MinInt64, math.MinInt64
		}
		if _, err := sim.Run(p, cfg); err != nil {
			t.Fatal(err)
		}
		g, st := sim.jump, sim.orb.stats
		au, du := 0, 0
		for x := int32(0); x < int32(n); x++ {
			switch {
			case p.units[x] != 0:
				if sim.tDone[x] != math.MinInt64 {
					du++
				}
			case x >= g.lo && x < g.hi && (sim.tDone[x] != math.MinInt64 || sim.tFill[x] != math.MinInt64):
				au++
			}
		}
		if limit := cfg.Cores[0].Window + int(p.orbitPeriod().reach); g.hi-g.lo <= int32(limit) || au > limit {
			t.Errorf("%s: AU jump %+v wrote %d times inside its stretch, want at most the window plus reach, %d, and a longer stretch", c.name, g, au, limit)
		}
		if simulated := len(p.Stream(1)) - st.skipped[1]; st.skipped[1] == 0 || du != simulated {
			t.Errorf("%s: %d DU ops jumped, %d DU external times written; want one per simulated DU op, %d", c.name, st.skipped[1], du, simulated)
		}
	}
}

// splitCase returns the fuzz input for FuzzDecoupledSplit that seed
// draws: 256 random bytes.
func splitCase(seed int64) []byte {
	data := make([]byte, 256)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// splitMatchesReference runs the decoupled tiled program and
// configuration data draws on sim and against the reference, and
// returns the program.
func splitMatchesReference(t *testing.T, sim *Sim, data []byte) (*Program, bool) {
	t.Helper()
	draw := byteDraw(data)
	p := tiledProgram(draw, 2, true)
	return p, simMatchesReference(t, sim, p, tiledConfig(draw, 2, true))
}

// FuzzDecoupledSplit is FuzzOrbitSkip over decoupled tiled programs:
// the split's two passes, and the skip on each, against ReferenceRun.
// Its seeds include the jumpRecordCases.
func FuzzDecoupledSplit(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 9, 3, 1, 0, 30, 2, 5, 1, 7, 0, 3, 2, 40, 1})
	for _, c := range jumpRecordCases {
		f.Add(splitCase(c.seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		splitMatchesReference(t, NewSim(), data)
	})
}

// TestOrbitSkipBound pins where the skip samples and how far it jumps,
// which no Result shows: the first sample comes one reach into the
// periodic run (or one step, if sooner), and a jump bounded by the
// periodic run's end stops at least reach and less than max(reach, 1)
// plus one orbit short of it, reach plus each core's next op being all
// a replay needs beyond its frontier: that next op is counted even
// when reach is 0, so that no replay sees a stream run out. On two
// cores, a core's next op can lie up to a period past the frontier.
func TestOrbitSkipBound(t *testing.T) {
	checked := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		units := 1 + rng.Intn(2)
		decoupled := units == 2 && rng.Intn(2) == 0
		p := tiledProgram(rng.Intn, units, decoupled)
		st, ok := skipMatchesReference(t, p, tiledConfig(rng.Intn, units, decoupled))
		per := p.orbitPeriod()
		for k := range st.first {
			if st.first[k] != 0 {
				if want := per.lo + min(st.step[k], per.reach+1); st.first[k] != want {
					t.Errorf("%s pass %d: first sample at op %d, want lo %d + min(step %d, reach %d + 1) = %d", p.Name, k, st.first[k], per.lo, st.step[k], per.reach, want)
					ok = false
				}
			}
			if st.jumps[k] == 0 || !st.byHi[k] {
				continue
			}
			checked++
			ahead := max(per.reach, 1)
			if units == 2 {
				ahead = max(per.reach, per.p)
			}
			if left := per.hi - st.landed[k]; left < per.reach || left >= ahead+st.orbit[k] {
				t.Errorf("%s pass %d: jump landed %d ops short of the periodic run's end, want in [reach %d, %d + orbit %d)", p.Name, k, left, per.reach, ahead, st.orbit[k])
				ok = false
			}
		}
		return ok
	}
	// A one-unit pass with reach 0 and an orbit of 2 ops whose jump
	// lands 2 ops short: the model with reach alone rejected it.
	if !f(2525) {
		t.Fatal("seed 2525 failed")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Error("no jump was bounded by the periodic run's end")
	}
}

// TestFreshSimAllocs pins a fresh Sim's first run: the calendar carves
// every bucket's first events from one slab, so a 6000-op program costs
// a few dozen allocations, not one per bucket growth. The split run
// also sizes the AU pass's time tables.
func TestFreshSimAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime inflates allocation counts")
	}
	cores := []isa.CoreConfig{{Window: 64, IssueWidth: 4}, {Window: 64, IssueWidth: 5}}
	for _, tc := range []struct {
		cfg  Config
		want float64
	}{
		{Config{Timing: tm(60), Cores: cores}, 42},
		{Config{Timing: tm(60), Cores: cores, CollectESW: true}, 17},
	} {
		p := twoUnitProgram(2000)
		avg := testing.AllocsPerRun(10, func() {
			if _, err := NewSim().Run(p, tc.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if avg > tc.want {
			t.Errorf("esw=%v: a fresh Sim's first run allocates %.0f objects, want <= %.0f", tc.cfg.CollectESW, avg, tc.want)
		}
	}
}

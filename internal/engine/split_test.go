package engine

import (
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
// as it does when the AU's times stop repeating for a while.
func TestSplitMatchesReference(t *testing.T) {
	runs, split, skipped, rejumps := 0, 0, 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := tiledProgram(rng.Intn, 2, true)
		st, ok := skipMatchesReference(t, p, tiledConfig(rng.Intn, 2, true))
		runs++
		if st.split {
			split++
		}
		if st.skipped > 0 {
			skipped++
		}
		if st.jumps[1] > 1 {
			rejumps++
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
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

// FuzzDecoupledSplit is FuzzOrbitSkip over decoupled tiled programs:
// the split's two passes, and the skip on each, against ReferenceRun.
func FuzzDecoupledSplit(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 9, 3, 1, 0, 30, 2, 5, 1, 7, 0, 3, 2, 40, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		draw := func(k int) int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1]) % k
		}
		p := tiledProgram(draw, 2, true)
		skipMatchesReference(t, p, tiledConfig(draw, 2, true))
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
	if !f(-7214299044434064879) {
		t.Fatal("seed -7214299044434064879 failed")
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

package metrics

import (
	"strings"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/kernel"
	"daesim/internal/machine"
	"daesim/internal/memsys"
	"daesim/internal/partition"
	"daesim/internal/sweep"
)

func TestSpeedupAndLHE(t *testing.T) {
	if Speedup(100, 20) != 5.0 {
		t.Fatal("speedup wrong")
	}
	if Speedup(100, 0) != 0 {
		t.Fatal("zero actual should yield zero")
	}
	if LHE(80, 100) != 0.8 {
		t.Fatal("LHE wrong")
	}
	if LHE(80, 0) != 0 {
		t.Fatal("zero actual should yield zero")
	}
}

func smallSuite(t *testing.T) *machine.Suite {
	t.Helper()
	b := kernel.New("metrics")
	arr := b.Array("a", 256, 8)
	for i := 0; i < 48; i++ {
		base := b.Int()
		v := b.Load(arr, i, base)
		f := b.FPChain(2, v)
		b.Store(arr, 128+i, f, base)
	}
	s, err := machine.NewSuite(b.MustTrace(), partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEquivalentWindowAgainstSuite(t *testing.T) {
	s := smallSuite(t)
	dm, err := s.RunDM(machine.Params{Window: 12, MD: 40})
	if err != nil {
		t.Fatal(err)
	}
	w, ok, err := EquivalentWindow(sweep.NewRunner(s), machine.Params{MD: 40, MemQueue: 24}, dm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("search saturated on a tiny kernel")
	}
	// Verify minimality: w matches, w-1 does not.
	check := func(win int) int64 {
		r, err := s.RunSWSM(machine.Params{Window: win, MD: 40, MemQueue: 24})
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	if check(w) > dm.Cycles {
		t.Fatalf("window %d does not meet the target", w)
	}
	if w > 1 && check(w-1) <= dm.Cycles {
		t.Fatalf("window %d is not minimal", w)
	}
}

// TestSearchAnswersAreBoundaries runs the search over a small figure
// grid. Simulated time is not perfectly monotone in window size (Graham
// anomalies), so an answer may legally land on either boundary of an
// anomaly wobble band; the contract every answer must satisfy is
// boundary validity: t(w) <= target < t(w-1).
func TestSearchAnswersAreBoundaries(t *testing.T) {
	s := smallSuite(t)
	r := sweep.NewRunner(s)
	probe := func(p machine.Params, w int) int64 {
		q := p
		q.Window = w
		q.MemQueue = machine.QueueFactor * p.Window
		r, err := s.RunSWSM(q)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	for _, md := range []int{0, 20, 40} {
		for _, w := range []int{4, 8, 12, 20} {
			p := machine.Params{Window: w, MD: md}
			dm, err := s.RunDM(p)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := EquivalentWindow(r, machine.Params{Window: w, MD: md, MemQueue: machine.QueueFactor * w}, dm.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			if c := probe(p, got); c > dm.Cycles {
				t.Errorf("md=%d w=%d: window %d misses target (%d > %d)", md, w, got, c, dm.Cycles)
			}
			if got > 1 {
				if c := probe(p, got-1); c <= dm.Cycles {
					t.Errorf("md=%d w=%d: window %d is not a boundary (t(w-1)=%d <= %d)", md, w, got, c, dm.Cycles)
				}
			}
		}
	}
}

// TestSearchLocalMatchesRemoteBatch pins the fleet-era contract the
// probe waves were designed around: the search answer is a pure
// function of its inputs — never of whether probes execute locally or
// through a batch-capable runner. This is what makes a server-side
// search byte-identical to a local one by construction (DESIGN.md §11),
// not merely in practice.
func TestSearchLocalMatchesRemoteBatch(t *testing.T) {
	s := smallSuite(t)
	dm, err := s.RunDM(machine.Params{Window: 12, MD: 40})
	if err != nil {
		t.Fatal(err)
	}
	p := machine.Params{Window: 12, MD: 40, MemQueue: 24}

	type answer struct {
		w  int
		ok bool
	}
	w, ok, err := EquivalentWindow(sweep.NewRunner(s), p, dm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	want := answer{w, ok}

	// A batch-capable runner (the remote path) probes the same waves and
	// lands on the same answer; every probe travels through RemoteBatch.
	exec := sweep.NewRunner(s)
	batched := sweep.NewRunner(s)
	waves := 0
	batched.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) {
		waves++
		return exec.RunAll(pts)
	}
	w, ok, err = EquivalentWindow(batched, p, dm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if (answer{w, ok}) != want {
		t.Errorf("batch-capable runner: (%d, %v) differs from local (%d, %v)", w, ok, want.w, want.ok)
	}
	if waves == 0 {
		t.Error("batch-capable runner should have routed probe waves remotely")
	}
	if st := batched.Stats(); st.Sims != 0 {
		t.Errorf("batch-capable runner simulated %d probes locally", st.Sims)
	}
	t.Logf("search resolved in %d remote waves", waves)

	// The ratio search folds its DM anchor into the first wave: one
	// round trip covers anchor plus ladder stage.
	execR := sweep.NewRunner(s)
	batchedR := sweep.NewRunner(s)
	var firstWave []sweep.Point
	batchedR.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) {
		if firstWave == nil {
			firstWave = append([]sweep.Point(nil), pts...)
		}
		return execR.RunAll(pts)
	}
	if _, _, err := EquivalentWindowRatio(batchedR, p); err != nil {
		t.Fatal(err)
	}
	if len(firstWave) < 2 || firstWave[0].Kind != machine.DM || firstWave[1].Kind != machine.SWSM {
		t.Errorf("ratio search's first wave should carry the DM anchor plus SWSM rungs, got %d points", len(firstWave))
	}
}

// handBuilt runs pts on memory models built by hand from their
// parameters, outside machine's spec path — the RemoteBatch hook of a
// runner whose searches are the oracle for spec searches.
func handBuilt(t *testing.T, s *machine.Suite) func([]sweep.Point) ([]*engine.Result, error) {
	return func(pts []sweep.Point) ([]*engine.Result, error) {
		out := make([]*engine.Result, len(pts))
		for i, pt := range pts {
			prog, err := s.Program(pt.Kind)
			if err != nil {
				return nil, err
			}
			cfg, err := pt.P.Config(pt.Kind)
			if err != nil {
				return nil, err
			}
			md := int64(pt.P.MD)
			switch pt.P.Mem.Kind {
			case memsys.BypassModel:
				cfg.Mem, err = memsys.NewBypass(md, pt.P.Mem.Lines)
			case memsys.CacheModel:
				cfg.Mem, err = memsys.DefaultHierarchy(md)
			default:
				cfg.Mem, err = memsys.NewOutstanding(md, machine.QueueFactor*pt.P.Window)
			}
			if err != nil {
				t.Fatal(err)
			}
			if out[i], err = engine.Run(prog, cfg); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// TestCustomMemSearchMatchesQueue: window and ratio searches over a
// memory-model point — the default window-scaled queue, a bypass buffer,
// a cache hierarchy — answer exactly as the same searches whose probes
// run on hand-built models. The spec runner's probes are cached: a
// second pass simulates nothing. The oracle's probes ride RemoteBatch.
func TestCustomMemSearchMatchesQueue(t *testing.T) {
	s := smallSuite(t)
	type answer struct {
		w     int
		ratio float64
		ok    bool
	}
	bypass, err := memsys.BypassSpec(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []memsys.Spec{{}, bypass, memsys.DefaultCacheSpec()} {
		for _, md := range []int{0, 40} {
			for _, w := range []int{8, 20} {
				p := machine.Params{Window: w, MD: md, Mem: spec}
				dm, err := s.RunDM(p)
				if err != nil {
					t.Fatal(err)
				}
				run := func(r *sweep.Runner) answer {
					win, ok, err := EquivalentWindow(r, p, dm.Cycles)
					if err != nil {
						t.Fatal(err)
					}
					ratio, rok, err := EquivalentWindowRatio(r, p)
					if err != nil {
						t.Fatal(err)
					}
					if rok != ok {
						t.Fatalf("%v md=%d w=%d: window search ok=%v, ratio search ok=%v", spec, md, w, ok, rok)
					}
					return answer{win, ratio, ok}
				}
				oracle := sweep.NewRunner(s)
				oracle.RemoteBatch = handBuilt(t, s)
				want := run(oracle)
				if st := oracle.Stats(); st.Sims != 0 || st.RemoteHits == 0 {
					t.Errorf("%v md=%d w=%d: oracle probes must ride RemoteBatch: %+v", spec, md, w, st)
				}
				r := sweep.NewRunner(s)
				if got := run(r); got != want {
					t.Errorf("%v md=%d w=%d: spec search %+v, hand-built search %+v", spec, md, w, got, want)
				}
				sims := r.Stats().Sims
				if got := run(r); got != want || r.Stats().Sims != sims {
					t.Errorf("%v md=%d w=%d: a repeated spec search must be all cache hits: %+v", spec, md, w, r.Stats())
				}
			}
		}
	}
}

// TestCustomMemSearchPropagatesErrors: a memory spec no model can be
// built from fails the search with the spec's error.
func TestCustomMemSearchPropagatesErrors(t *testing.T) {
	s := smallSuite(t)
	bad := memsys.Spec{Kind: memsys.CacheModel, Levels: [memsys.MaxLevels]memsys.CacheLevel{{Sets: 3, Ways: 1}}}
	_, _, err := EquivalentWindow(sweep.NewRunner(s), machine.Params{Window: 8, MD: 40, Mem: bad}, 1000)
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Errorf("want the spec's geometry error, got %v", err)
	}
}

// TestEquivalentWindowHintInvariance: the bracket hint (p.Window) must
// not change the answer, wherever it lands relative to the minimum.
func TestEquivalentWindowHintInvariance(t *testing.T) {
	s := smallSuite(t)
	r := sweep.NewRunner(s)
	dm, err := s.RunDM(machine.Params{Window: 12, MD: 40})
	if err != nil {
		t.Fatal(err)
	}
	base := machine.Params{MD: 40, MemQueue: 24}
	want, wantOK, err := EquivalentWindow(r, base, dm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	for _, hint := range []int{0, 1, 3, 12, 77, 600, MaxEquivalentWindow, MaxEquivalentWindow + 9} {
		q := base
		q.Window = hint
		got, ok, err := EquivalentWindow(r, q, dm.Cycles)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || ok != wantOK {
			t.Errorf("hint=%d: got (%d, %v), want (%d, %v)", hint, got, ok, want, wantOK)
		}
	}
}

// TestSearchSaturates: an unreachable target reports the cap and !ok.
func TestSearchSaturates(t *testing.T) {
	s := smallSuite(t)
	w, ok, err := EquivalentWindow(sweep.NewRunner(s), machine.Params{MD: 40, Window: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok || w != MaxEquivalentWindow {
		t.Fatalf("unreachable target gave (%d, %v), want (%d, false)", w, ok, MaxEquivalentWindow)
	}
}

func TestEquivalentWindowRatioNeedsFiniteWindow(t *testing.T) {
	s := smallSuite(t)
	if _, _, err := EquivalentWindowRatio(sweep.NewRunner(s), machine.Params{Window: 0, MD: 40}); err == nil {
		t.Fatal("unlimited DM window accepted")
	}
}

func TestCrossover(t *testing.T) {
	s := smallSuite(t)
	windows := []int{2, 4, 8, 16, 32, 64, 128}
	w, ok, err := Crossover(sweep.NewRunner(s), machine.Params{MD: 0}, windows)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("no crossover on this kernel; covered by experiments tests")
	}
	if w < 2 || w > 128 {
		t.Fatalf("crossover %d outside sweep", w)
	}
}

// TestInOrderWavesKeepAnswersAndSaveProbes: a local search evaluates
// each wave in order, one point at a time, and stops at the first probe
// meeting the target. The reference is a runner whose RemoteBatch hook
// evaluates whole waves. Over every Figure 7 (MD, window) point of the
// small suite, both the window and the ratio search must give the
// reference's answer, and never simulate more probes than it.
func TestInOrderWavesKeepAnswersAndSaveProbes(t *testing.T) {
	s := smallSuite(t)
	type answer struct {
		w     int
		ratio float64
		ok    bool
	}
	searches := []struct {
		name string
		run  func(r *sweep.Runner, p machine.Params, target int64) (answer, error)
	}{
		{"EquivalentWindow", func(r *sweep.Runner, p machine.Params, target int64) (answer, error) {
			w, ok, err := EquivalentWindow(r, p, target)
			return answer{w: w, ok: ok}, err
		}},
		{"EquivalentWindowRatio", func(r *sweep.Runner, p machine.Params, _ int64) (answer, error) {
			ratio, ok, err := EquivalentWindowRatio(r, p)
			return answer{ratio: ratio, ok: ok}, err
		}},
	}
	// Points where the serial search must simulate strictly fewer
	// probes: some of their waves meet the target before the last probe
	// (whole waves 12 and 18 probes per ratio search, serial 8 and 13).
	named := map[machine.Params]bool{{Window: 10, MD: 0}: true, {Window: 50, MD: 60}: true}
	var whole, serial int64
	for _, md := range []int{0, 10, 20, 30, 40, 50, 60} {
		for w := 10; w <= 100; w += 10 {
			p := machine.Params{Window: w, MD: md}
			dm, err := s.RunDM(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, sr := range searches {
				exec := sweep.NewRunner(s)
				batched := sweep.NewRunner(s)
				batched.RemoteBatch = exec.RunAll
				want, err := sr.run(batched, p, dm.Cycles)
				if err != nil {
					t.Fatal(err)
				}
				wantSims := exec.Stats().Sims
				whole += wantSims
				local := sweep.NewRunner(s)
				got, err := sr.run(local, p, dm.Cycles)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s md=%d w=%d: %+v, whole-wave search gave %+v", sr.name, md, w, got, want)
				}
				sims := local.Stats().Sims
				serial += sims
				if sims > wantSims {
					t.Errorf("%s md=%d w=%d: %d probes simulated, whole-wave search needed %d", sr.name, md, w, sims, wantSims)
				}
				if named[p] && sims >= wantSims {
					t.Errorf("%s md=%d w=%d: serial search simulated %d probes, want fewer than the whole-wave %d", sr.name, md, w, sims, wantSims)
				}
			}
		}
	}
	t.Logf("probes simulated: whole waves %d, serial in-order %d", whole, serial)
}

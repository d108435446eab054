package metrics

import (
	"reflect"
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

	// Every answer of a whole curve is a boundary too, though all but
	// its first target start from brackets the curve's earlier probes
	// narrowed. A probe at window w gets the default w-scaled queue.
	swsm := func(md, w int) int64 {
		r, err := s.RunSWSM(machine.Params{Window: w, MD: md})
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	for _, md := range []int{0, 20, 40, 60} {
		windows := append([]int{4, 8, 12}, figureWindows...)
		targets := ratioTargets(t, s, machine.Params{MD: md}, windows)
		got, ok, err := (&curve{r: r, p: machine.Params{MD: md}}).searchAll(windows, targets)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range windows {
			if !ok[i] {
				t.Errorf("curve md=%d w=%d: search saturated on a tiny kernel", md, w)
				continue
			}
			if c := swsm(md, got[i]); c > targets[i] {
				t.Errorf("curve md=%d w=%d: window %d misses target (%d > %d)", md, w, got[i], c, targets[i])
			}
			if got[i] > 1 {
				if c := swsm(md, got[i]-1); c <= targets[i] {
					t.Errorf("curve md=%d w=%d: window %d is not a boundary (t(w-1)=%d <= %d)", md, w, got[i], c, targets[i])
				}
			}
		}
	}
}

// TestSearchLocalMatchesRemoteBatch: the search answer is a pure
// function of its inputs, never of whether probes simulate locally or
// through a RemoteBatch hook, which is what makes a remote search
// byte-identical to a local one (DESIGN.md §11). One window search
// gives the same answer both ways, and the hook simulates exactly the
// probes the local search simulates. A ratio curve's DM anchors travel
// as one batch, and every later batch is one SWSM probe.
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
	local := sweep.NewRunner(s)
	w, ok, err := EquivalentWindow(local, p, dm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	want := answer{w, ok}

	exec := sweep.NewRunner(s)
	hooked := sweep.NewRunner(s)
	calls := 0
	hooked.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) {
		calls++
		return exec.RunAll(pts)
	}
	w, ok, err = EquivalentWindow(hooked, p, dm.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if (answer{w, ok}) != want {
		t.Errorf("hooked runner: (%d, %v) differs from local (%d, %v)", w, ok, want.w, want.ok)
	}
	if calls == 0 {
		t.Error("hooked runner should have routed its probes through RemoteBatch")
	}
	if st := hooked.Stats(); st.Sims != 0 {
		t.Errorf("hooked runner simulated %d probes locally", st.Sims)
	}
	if got, want := exec.Stats().Sims, local.Stats().Sims; got != want {
		t.Errorf("hook simulated %d probes, local search %d", got, want)
	}
	t.Logf("search resolved in %d remote calls", calls)

	execR := sweep.NewRunner(s)
	hookedR := sweep.NewRunner(s)
	var batches [][]sweep.Point
	hookedR.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) {
		batches = append(batches, append([]sweep.Point(nil), pts...))
		return execR.RunAll(pts)
	}
	windows := []int{4, 8, 12, 20}
	if _, err := RatioCurve(hookedR, machine.Params{MD: 40}, windows); err != nil {
		t.Fatal(err)
	}
	if len(batches) < 2 || len(batches[0]) != len(windows) {
		t.Fatalf("a ratio curve's first batch should carry its %d DM anchors; got %d batches", len(windows), len(batches))
	}
	for i, b := range batches[1:] {
		if len(b) != 1 || b[0].Kind != machine.SWSM {
			t.Errorf("batch %d carries %v, want one SWSM probe", i+1, b)
		}
	}
}

// ratioTargets runs the DM at every window of a curve and returns the
// times its searches must meet.
func ratioTargets(t *testing.T, s *machine.Suite, p machine.Params, windows []int) []int64 {
	t.Helper()
	targets := make([]int64, len(windows))
	for i, w := range windows {
		q := p
		q.Window = w
		dm, err := s.RunDM(q)
		if err != nil {
			t.Fatal(err)
		}
		targets[i] = dm.Cycles
	}
	return targets
}

// figureWindows are the DM windows of a Figure 7-9 curve.
var figureWindows = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// TestCurveLocalMatchesRemoteBatch: a whole curve searched locally and
// through a RemoteBatch hook gives the same answers and reads the same
// known probes, certified bounds included; the hook simulates exactly
// the points the local curve simulates, and the hooked runner prunes as
// many.
func TestCurveLocalMatchesRemoteBatch(t *testing.T) {
	s := smallSuite(t)
	var pruned int64
	for _, md := range []int{0, 20, 40, 60} {
		p := machine.Params{MD: md}
		targets := ratioTargets(t, s, p, figureWindows)
		local := &curve{r: sweep.NewRunner(s), p: p}
		wantW, wantOK, err := local.searchAll(figureWindows, targets)
		if err != nil {
			t.Fatal(err)
		}
		exec := sweep.NewRunner(s)
		hooked := &curve{r: sweep.NewRunner(s), p: p}
		hooked.r.RemoteBatch = exec.RunAll
		gotW, gotOK, err := hooked.searchAll(figureWindows, targets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotW, wantW) || !reflect.DeepEqual(gotOK, wantOK) {
			t.Errorf("md=%d: hooked curve answers %v %v, local %v %v", md, gotW, gotOK, wantW, wantOK)
		}
		if !reflect.DeepEqual(hooked.known, local.known) {
			t.Errorf("md=%d: hooked curve read %v, local %v", md, hooked.known, local.known)
		}
		want, got := local.r.Stats(), hooked.r.Stats()
		if exec.Stats().Sims != want.Sims || got.Sims != 0 || got.Pruned != want.Pruned {
			t.Errorf("md=%d: hook simulated %d, hooked runner %d and pruned %d; local simulated %d and pruned %d", md, exec.Stats().Sims, got.Sims, got.Pruned, want.Sims, want.Pruned)
		}
		pruned += want.Pruned
	}
	// The bounds check bites only if some probe was a certified miss.
	if pruned == 0 {
		t.Error("no local probe was a certified miss")
	}
}

// TestCurveOrderInvariance: a curve's answers and its probe path do not
// depend on the order its targets are listed in.
func TestCurveOrderInvariance(t *testing.T) {
	s := smallSuite(t)
	p := machine.Params{MD: 40}
	r := sweep.NewRunner(s)
	var want []RatioAnswer
	var wantKnown []probe
	for _, perm := range [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		{3, 7, 0, 9, 5, 1, 8, 2, 6, 4},
	} {
		windows := make([]int, len(perm))
		for i, j := range perm {
			windows[i] = figureWindows[j]
		}
		got, err := RatioCurve(r, p, windows)
		if err != nil {
			t.Fatal(err)
		}
		c := &curve{r: r, p: p}
		if _, _, err := c.searchAll(windows, ratioTargets(t, s, p, windows)); err != nil {
			t.Fatal(err)
		}
		byWindow := make([]RatioAnswer, len(perm))
		for i, j := range perm {
			byWindow[j] = got[i]
		}
		if want == nil {
			want, wantKnown = byWindow, c.known
			continue
		}
		if !reflect.DeepEqual(byWindow, want) {
			t.Errorf("order %v: answers %v, want %v", perm, byWindow, want)
		}
		if !reflect.DeepEqual(c.known, wantKnown) {
			t.Errorf("order %v: probe path %v, want %v", perm, c.known, wantKnown)
		}
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

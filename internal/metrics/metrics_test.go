package metrics

import (
	"runtime"
	"strings"
	"sync/atomic"
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

// TestSearchParallelMatchesSerial runs the search at Parallelism 1 and
// 4 over a small figure grid. Simulated time is not perfectly monotone
// in window size (Graham anomalies), so an answer may legally land on
// either boundary of an anomaly wobble band; the contract both widths
// must satisfy is boundary validity — t(w) <= target < t(w-1) — plus
// agreement on ok. Run under -race this also exercises the worker pool
// for data races (the CI race job does).
func TestSearchParallelMatchesSerial(t *testing.T) {
	s := smallSuite(t)
	serial := NewSearch(sweep.NewRunner(s))
	serial.Parallelism = 1
	parallel := NewSearch(sweep.NewRunner(s))
	parallel.Parallelism = 4
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
			sw, sok, err := serial.EquivalentWindow(machine.Params{Window: w, MD: md, MemQueue: machine.QueueFactor * w}, dm.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			pw, pok, err := parallel.EquivalentWindow(machine.Params{Window: w, MD: md, MemQueue: machine.QueueFactor * w}, dm.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			if sok != pok {
				t.Errorf("md=%d w=%d: ok mismatch: serial %v, parallel %v", md, w, sok, pok)
				continue
			}
			if !sok {
				continue
			}
			for _, got := range []struct {
				name string
				w    int
			}{{"serial", sw}, {"parallel", pw}} {
				if c := probe(p, got.w); c > dm.Cycles {
					t.Errorf("md=%d w=%d: %s window %d misses target (%d > %d)", md, w, got.name, got.w, c, dm.Cycles)
				}
				if got.w > 1 {
					if c := probe(p, got.w-1); c <= dm.Cycles {
						t.Errorf("md=%d w=%d: %s window %d is not a boundary (t(w-1)=%d <= %d)", md, w, got.name, got.w, c, dm.Cycles)
					}
				}
			}
		}
	}
}

// TestSearchDeterministicAcrossParallelism pins the fleet-era contract
// the probe waves were redesigned around: the search answer is a pure
// function of its inputs — never of Parallelism, GOMAXPROCS, or
// whether probes execute locally or through a batch-capable runner.
// This is what makes a server-side search byte-identical to a local
// one by construction (DESIGN.md §11), not merely in practice.
func TestSearchDeterministicAcrossParallelism(t *testing.T) {
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
	var want answer
	for i, par := range []int{1, 2, 4, 9} {
		search := NewSearch(sweep.NewRunner(s))
		search.Parallelism = par
		w, ok, err := search.EquivalentWindow(p, dm.Cycles)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = answer{w, ok}
			continue
		}
		if (answer{w, ok}) != want {
			t.Errorf("par=%d: (%d, %v) differs from par=1's (%d, %v)", par, w, ok, want.w, want.ok)
		}
	}

	// A batch-capable runner (the remote path) probes the same waves and
	// lands on the same answer; every probe travels through RemoteBatch.
	exec := sweep.NewRunner(s)
	batched := sweep.NewRunner(s)
	waves := 0
	batched.RemoteBatch = func(pts []sweep.Point) ([]*engine.Result, error) {
		waves++
		return exec.RunAll(pts)
	}
	search := NewSearch(batched)
	w, ok, err := search.EquivalentWindow(p, dm.Cycles)
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
	if _, _, err := NewSearch(batchedR).EquivalentWindowRatio(p); err != nil {
		t.Fatal(err)
	}
	if len(firstWave) < 2 || firstWave[0].Kind != machine.DM || firstWave[1].Kind != machine.SWSM {
		t.Errorf("ratio search's first wave should carry the DM anchor plus SWSM rungs, got %d points", len(firstWave))
	}
}

// guardMem is a stateful memory model that fails the test when two
// runs drive it at once: it yields inside every RequestFill, so a
// concurrent caller would land in the same call.
type guardMem struct {
	t      *testing.T
	inner  *memsys.Outstanding
	inside atomic.Int32
}

func (g *guardMem) RequestFill(addr uint64, sent int64) int64 {
	if g.inside.Add(1) != 1 {
		g.t.Error("memory model probed concurrently")
	}
	runtime.Gosched()
	arrive := g.inner.RequestFill(addr, sent)
	g.inside.Add(-1)
	return arrive
}
func (g *guardMem) Consume(addr uint64, cycle int64) { g.inner.Consume(addr, cycle) }
func (g *guardMem) Reset()                           { g.inner.Reset() }

// TestCustomMemSearchMatchesQueue: a point carrying a custom memory
// model runs the same search waves as a cacheable one. Mem =
// memsys.NewOutstanding(md, q) is the model MemQueue: q selects, so the
// window and ratio searches must answer identically at every
// Parallelism — and never probe the stateful model concurrently.
func TestCustomMemSearchMatchesQueue(t *testing.T) {
	s := smallSuite(t)
	type answer struct {
		w     int
		ratio float64
		ok    bool
	}
	for _, md := range []int{0, 40} {
		for _, w := range []int{8, 20} {
			q := machine.QueueFactor * w
			queued := machine.Params{Window: w, MD: md, MemQueue: q}
			dm, err := s.RunDM(queued)
			if err != nil {
				t.Fatal(err)
			}
			run := func(search *Search, p machine.Params) answer {
				win, ok, err := search.EquivalentWindow(p, dm.Cycles)
				if err != nil {
					t.Fatal(err)
				}
				ratio, rok, err := search.EquivalentWindowRatio(p)
				if err != nil {
					t.Fatal(err)
				}
				if rok != ok {
					t.Fatalf("md=%d w=%d: window search ok=%v, ratio search ok=%v", md, w, ok, rok)
				}
				return answer{win, ratio, ok}
			}
			want := run(NewSearch(sweep.NewRunner(s)), queued)
			for _, par := range []int{1, 4} {
				inner, err := memsys.NewOutstanding(int64(md), q)
				if err != nil {
					t.Fatal(err)
				}
				p := machine.Params{Window: w, MD: md, Mem: &guardMem{t: t, inner: inner}}
				r := sweep.NewRunner(s)
				search := NewSearch(r)
				search.Parallelism = par
				if got := run(search, p); got != want {
					t.Errorf("md=%d w=%d par=%d: custom Mem search %+v, MemQueue search %+v", md, w, par, got, want)
				}
				if st := r.Stats(); st.Sims != 0 || st.Uncacheable == 0 {
					t.Errorf("md=%d w=%d par=%d: custom Mem probes must bypass the cache: %+v", md, w, par, st)
				}
			}
		}
	}
}

// earlyMem returns every fill one cycle before its send, which the
// engine refuses.
type earlyMem struct{}

func (earlyMem) RequestFill(addr uint64, sent int64) int64 { return sent - 1 }
func (earlyMem) Consume(addr uint64, cycle int64)          {}
func (earlyMem) Reset()                                    {}

// TestCustomMemSearchPropagatesErrors: an engine error raised by a
// custom memory model fails the search with that error.
func TestCustomMemSearchPropagatesErrors(t *testing.T) {
	s := smallSuite(t)
	for _, par := range []int{1, 4} {
		search := NewSearch(sweep.NewRunner(s))
		search.Parallelism = par
		_, _, err := search.EquivalentWindow(machine.Params{Window: 8, MD: 40, Mem: earlyMem{}}, 1000)
		if err == nil || !strings.Contains(err.Error(), "before send") {
			t.Errorf("par=%d: want the engine's arrival-before-send error, got %v", par, err)
		}
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
	for _, par := range []int{1, 4} {
		for _, hint := range []int{0, 1, 3, 12, 77, 600, MaxEquivalentWindow, MaxEquivalentWindow + 9} {
			q := base
			q.Window = hint
			search := NewSearch(r)
			search.Parallelism = par
			got, ok, err := search.EquivalentWindow(q, dm.Cycles)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || ok != wantOK {
				t.Errorf("par=%d hint=%d: got (%d, %v), want (%d, %v)", par, hint, got, ok, want, wantOK)
			}
		}
	}
}

// TestSearchSaturates: an unreachable target reports the cap and !ok at
// Parallelism 1 and 3.
func TestSearchSaturates(t *testing.T) {
	s := smallSuite(t)
	for _, par := range []int{1, 3} {
		search := NewSearch(sweep.NewRunner(s))
		search.Parallelism = par
		w, ok, err := search.EquivalentWindow(machine.Params{MD: 40, Window: 16}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ok || w != MaxEquivalentWindow {
			t.Fatalf("par=%d: unreachable target gave (%d, %v), want (%d, false)", par, w, ok, MaxEquivalentWindow)
		}
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
// each wave in order, Parallelism points at a time, and stops at the
// first probe meeting the target. The reference is a runner whose
// RemoteBatch hook evaluates whole waves. Over every Figure 7
// (MD, window) point of the small suite, both the window and the ratio
// search must give the reference's answer at every Parallelism, and
// never simulate more probes than it.
func TestInOrderWavesKeepAnswersAndSaveProbes(t *testing.T) {
	s := smallSuite(t)
	type answer struct {
		w     int
		ratio float64
		ok    bool
	}
	searches := []struct {
		name string
		run  func(search *Search, p machine.Params, target int64) (answer, error)
	}{
		{"EquivalentWindow", func(search *Search, p machine.Params, target int64) (answer, error) {
			w, ok, err := search.EquivalentWindow(p, target)
			return answer{w: w, ok: ok}, err
		}},
		{"EquivalentWindowRatio", func(search *Search, p machine.Params, _ int64) (answer, error) {
			ratio, ok, err := search.EquivalentWindowRatio(p)
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
				want, err := sr.run(NewSearch(batched), p, dm.Cycles)
				if err != nil {
					t.Fatal(err)
				}
				wantSims := exec.Stats().Sims
				whole += wantSims
				for _, par := range []int{1, 2, 4, 9} {
					local := sweep.NewRunner(s)
					search := NewSearch(local)
					search.Parallelism = par
					got, err := sr.run(search, p, dm.Cycles)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s md=%d w=%d par=%d: %+v, whole-wave search gave %+v", sr.name, md, w, par, got, want)
					}
					sims := local.Stats().Sims
					if sims > wantSims {
						t.Errorf("%s md=%d w=%d par=%d: %d probes simulated, whole-wave search needed %d", sr.name, md, w, par, sims, wantSims)
					}
					if par == 1 {
						serial += sims
						if named[p] && sims >= wantSims {
							t.Errorf("%s md=%d w=%d: serial search simulated %d probes, want fewer than the whole-wave %d", sr.name, md, w, sims, wantSims)
						}
					}
				}
			}
		}
	}
	t.Logf("probes simulated: whole waves %d, serial in-order %d", whole, serial)
}

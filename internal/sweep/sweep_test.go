package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"daesim/internal/engine"
	"daesim/internal/kernel"
	"daesim/internal/machine"
	"daesim/internal/memsys"
	"daesim/internal/partition"
)

func testRunner(t *testing.T) *Runner {
	t.Helper()
	b := kernel.New("sweep")
	arr := b.Array("a", 128, 8)
	for i := 0; i < 32; i++ {
		base := b.Int()
		v := b.Load(arr, i, base)
		b.Store(arr, 64+i, b.FP(v), base)
	}
	s, err := machine.NewSuite(b.MustTrace(), partition.Classic)
	if err != nil {
		t.Fatal(err)
	}
	return NewRunner(s)
}

func TestRunCaches(t *testing.T) {
	r := testRunner(t)
	pt := Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}}
	a, err := r.Run(pt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(pt)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("callers must get private copies, not the shared cache entry")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cached result differs from original: %+v vs %+v", a, b)
	}
	if st := r.Stats(); st.Sims != 1 || st.L1Hits != 1 {
		t.Fatalf("want 1 sim and 1 L1 hit, got %+v", st)
	}
}

func TestRunReturnsDefensiveCopies(t *testing.T) {
	// Cached Results used to be shared pointers guarded only by a "must
	// not be mutated" comment; this pins the defensive-copy contract: a
	// caller scribbling on a returned Result must not poison later hits.
	r := testRunner(t)
	pt := Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}}
	a, err := r.Run(pt)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Clone()
	a.Cycles = -1
	a.Ops = -1
	for i := range a.Cores {
		a.Cores[i].Issued = -1
		for j := range a.Cores[i].IssueHist {
			a.Cores[i].IssueHist[j] = -1
		}
	}
	b, err := r.Run(pt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, b) {
		t.Fatalf("mutating a returned Result leaked into the cache:\nwant %+v\ngot  %+v", want, b)
	}
}

// TestMemSpecHitsL1AndStore: a point with a memory model is cached like
// any other — a repeat is an L1 hit, and a fresh runner over the same
// store reads it back without simulating, hit count included.
func TestMemSpecHitsL1AndStore(t *testing.T) {
	dir := t.TempDir()
	bp, err := memsys.BypassSpec(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []memsys.Spec{bp, memsys.DefaultCacheSpec()} {
		pt := storePoint
		pt.P.Mem = spec
		r := storeRunner(t, dir, 24)
		cold, err := r.Run(pt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(pt); err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Sims != 1 || st.L1Hits != 1 {
			t.Errorf("%v: want 1 sim and 1 L1 hit, got %+v", spec, st)
		}
		if cold.MemHits == 0 {
			t.Errorf("%v: no hits recorded on a reused array", spec)
		}
		warm := storeRunner(t, dir, 24)
		got, err := warm.Run(pt)
		if err != nil {
			t.Fatal(err)
		}
		if st := warm.Stats(); st.Sims != 0 || st.StoreHits != 1 {
			t.Errorf("%v: a fresh runner must read the point from the store: %+v", spec, st)
		}
		if !reflect.DeepEqual(got, cold) {
			t.Errorf("%v: store round trip changed the result:\ncold %+v\nwarm %+v", spec, cold, got)
		}
		r.Store.Close()
		warm.Store.Close()
	}
}

func TestRunAllOrderAndParallel(t *testing.T) {
	r := testRunner(t)
	var pts []Point
	for _, w := range []int{2, 4, 8, 16, 32} {
		pts = append(pts, Point{Kind: machine.DM, P: machine.Params{Window: w, MD: 30}})
	}
	results, err := r.RunAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pts) {
		t.Fatalf("got %d results", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Cycles > results[i-1].Cycles {
			// Small scheduling anomalies are possible but not on this
			// trivially regular kernel.
			t.Errorf("results out of order or nonmonotone: %d then %d", results[i-1].Cycles, results[i].Cycles)
		}
	}
	// Serial path must agree with the parallel path.
	r2 := testRunner(t)
	r2.Parallelism = 1
	serial, err := r2.RunAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Cycles != results[i].Cycles {
			t.Fatalf("parallel/serial divergence at %d: %d vs %d", i, results[i].Cycles, serial[i].Cycles)
		}
	}
}

// TestRunBatchMatchesRunAll: a batch through RunAll answers exactly
// what point-wise Run calls would — including duplicates, cached points
// and memory-model points — with the same counters a point-wise run
// would produce.
func TestRunBatchMatchesRunAll(t *testing.T) {
	oracle := testRunner(t)
	r := testRunner(t)
	pts := []Point{
		{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}},
		{Kind: machine.SWSM, P: machine.Params{Window: 16, MD: 30}},
		{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}}, // duplicate
		{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30, Mem: memsys.DefaultCacheSpec()}},
		{Kind: machine.DM, P: machine.Params{Window: 4, MD: 30}},
	}
	// Warm one point so the batch sees a pre-existing L1 entry.
	if _, err := r.Run(pts[4]); err != nil {
		t.Fatal(err)
	}
	got, err := r.RunAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		want, err := oracle.Run(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("point %d: batch result differs from point-wise", i)
		}
	}
	st := r.Stats()
	if st.Sims != 4 || st.L1Hits != 2 {
		t.Errorf("want 4 sims and 2 L1 hits, got %+v", st)
	}
	// Returned results are private copies, like every other path.
	got[0].Cycles = -1
	again, err := r.RunAll(pts[:1])
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Cycles == -1 {
		t.Error("RunAll leaked the cached Result")
	}
}

// TestRunMatchesRunAll: a point-wise pass (Run, one point at a time)
// and one RunAll over the same points — duplicates included — return
// DeepEqual results and equal counters on a local, a store-backed and a
// RemoteBatch runner.
func TestRunMatchesRunAll(t *testing.T) {
	pts := []Point{
		{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}},
		{Kind: machine.SWSM, P: machine.Params{Window: 16, MD: 30}},
		{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}}, // duplicate
		{Kind: machine.SWSM, P: machine.Params{Window: 4, MD: 30}},
		{Kind: machine.SWSM, P: machine.Params{Window: 16, MD: 30}}, // duplicate
	}
	configs := []struct {
		name string
		make func(t *testing.T) *Runner
	}{
		{"local", testRunner},
		{"store", func(t *testing.T) *Runner {
			store, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			// One stored point, so both passes peel a store hit.
			warmer := testRunner(t)
			warmer.Store = store
			if _, err := warmer.Run(pts[1]); err != nil {
				t.Fatal(err)
			}
			r := testRunner(t)
			r.Store = store
			return r
		}},
		{"remote-batch", func(t *testing.T) *Runner {
			exec := testRunner(t)
			r := testRunner(t)
			r.RemoteBatch = exec.RunAll
			return r
		}},
	}
	for _, cfg := range configs {
		pointwise, batched := cfg.make(t), cfg.make(t)
		var got []*engine.Result
		for _, pt := range pts {
			res, err := pointwise.Run(pt)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res)
		}
		want, err := batched.RunAll(pts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Run results differ from RunAll's", cfg.name)
		}
		if a, b := pointwise.Stats(), batched.Stats(); a != b {
			t.Errorf("%s: Run counters %+v, RunAll counters %+v", cfg.name, a, b)
		}
	}
}

// TestRunRidesRemoteBatch: with both hooks set, a single point travels
// as one RemoteBatch call carrying that point; Remote is never called.
func TestRunRidesRemoteBatch(t *testing.T) {
	exec := testRunner(t)
	r := testRunner(t)
	var batches []int
	r.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
		batches = append(batches, len(pts))
		return exec.RunAll(pts)
	}
	r.Remote = func(Point) (*engine.Result, error) {
		t.Error("Remote called while RemoteBatch is set")
		return nil, errFleetDown
	}
	if _, err := r.Run(Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batches, []int{1}) {
		t.Errorf("want one RemoteBatch call carrying 1 point, got calls of sizes %v", batches)
	}
	if st := r.Stats(); st.RemoteHits != 1 || st.Sims != 0 {
		t.Errorf("want 1 remote hit and no local simulation, got %+v", st)
	}
}

// TestRunBatchRemote: with a RemoteBatch hook, exactly the local-layer
// misses of a RunAll travel, in one call; warm batches travel nothing;
// a remote error fails the batch loudly and drops the claims so a retry
// works.
func TestRunBatchRemote(t *testing.T) {
	exec := testRunner(t) // stands in for the daemon fleet
	r := testRunner(t)
	var calls, points atomic.Int64
	var fail atomic.Bool
	r.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
		if fail.Load() {
			return nil, errFleetDown
		}
		calls.Add(1)
		points.Add(int64(len(pts)))
		return exec.RunAll(pts)
	}

	var pts []Point
	for _, w := range []int{4, 8, 16, 32} {
		pts = append(pts, Point{Kind: machine.DM, P: machine.Params{Window: w, MD: 30}})
	}
	// Pre-warm one point locally: it must not travel.
	r.RemoteBatch = nil
	if _, err := r.Run(pts[0]); err != nil {
		t.Fatal(err)
	}
	r.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
		if fail.Load() {
			return nil, errFleetDown
		}
		calls.Add(1)
		points.Add(int64(len(pts)))
		return exec.RunAll(pts)
	}

	got, err := r.RunAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || points.Load() != 3 {
		t.Errorf("want 1 remote call carrying the 3 misses, got %d calls, %d points", calls.Load(), points.Load())
	}
	for i, pt := range pts {
		local, err := exec.Run(pt)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Cycles != local.Cycles {
			t.Errorf("point %d: remote-batched result differs", i)
		}
	}
	// Warm batch: everything is an L1 hit, nothing travels.
	if _, err := r.RunAll(pts); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("warm batch should travel nothing, remote calls went to %d", calls.Load())
	}
	st := r.Stats()
	if st.RemoteHits != 3 || st.Sims != 1 {
		t.Errorf("want 3 remote hits and the 1 pre-warmed local sim, got %+v", st)
	}

	// A remote failure surfaces and does not poison the cache.
	fresh := Point{Kind: machine.SWSM, P: machine.Params{Window: 64, MD: 30}}
	fail.Store(true)
	if _, err := r.RunAll([]Point{fresh}); err == nil {
		t.Fatal("remote batch failure must surface")
	}
	fail.Store(false)
	if _, err := r.RunAll([]Point{fresh}); err != nil {
		t.Fatalf("retry after a remote failure: %v", err)
	}
}

var errFleetDown = errors.New("fleet down")

// TestRunBatchStorePeel: a fresh process over a warm store serves a
// batch entirely from L2 — nothing simulates, nothing travels — and a
// remote nil result is refused before it can poison either layer.
func TestRunBatchStorePeel(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var pts []Point
	for _, w := range []int{4, 8, 16, 32, 64} {
		pts = append(pts, Point{Kind: machine.DM, P: machine.Params{Window: w, MD: 30}})
	}
	warmer := testRunner(t)
	warmer.Store = store
	want, err := warmer.RunAll(pts)
	if err != nil {
		t.Fatal(err)
	}

	r := testRunner(t) // fresh L1, same store
	r.Store = store
	r.RemoteBatch = func([]Point) ([]*engine.Result, error) {
		t.Error("store-warm batch must not travel")
		return nil, errFleetDown
	}
	got, err := r.RunAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if got[i].Cycles != want[i].Cycles {
			t.Errorf("point %d: store-peeled result differs", i)
		}
	}
	if st := r.Stats(); st.StoreHits != int64(len(pts)) || st.Sims != 0 {
		t.Errorf("want %d store hits and 0 sims, got %+v", len(pts), st)
	}

	// A nil element in a remote reply is a loud error, not a cache fill.
	bad := testRunner(t)
	bad.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
		return make([]*engine.Result, len(pts)), nil
	}
	if _, err := bad.RunAll(pts[:1]); err == nil || !errorsContains(err, "nil result") {
		t.Errorf("nil remote result must fail the batch: %v", err)
	}
	if st := bad.Stats(); st.RemoteHits != 0 {
		t.Errorf("nil results must not count as remote hits: %+v", st)
	}
	if _, err := bad.RunAll(pts[:1]); err == nil {
		t.Error("the poisoned claim should have been dropped and retried remotely (still failing)")
	}
}

func errorsContains(err error, sub string) bool {
	return err != nil && strings.Contains(err.Error(), sub)
}

func TestWindowSweep(t *testing.T) {
	r := testRunner(t)
	windows := []int{4, 8, 16}
	s, err := r.WindowSweep(machine.SWSM, machine.Params{MD: 20}, windows,
		func(w int, res *engine.Result) float64 { return float64(res.Cycles) })
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) != 3 || s.X[0] != 4 || s.X[2] != 16 {
		t.Fatalf("x values wrong: %v", s.X)
	}
	if s.Y[0] < s.Y[2] {
		t.Fatalf("cycles should not grow with window: %v", s.Y)
	}
}

func TestWindows(t *testing.T) {
	w := Windows(10, 50, 10)
	if len(w) != 5 || w[0] != 10 || w[4] != 50 {
		t.Fatalf("Windows wrong: %v", w)
	}
	if got := Windows(5, 4, 1); got != nil {
		t.Fatalf("empty range should be nil: %v", got)
	}
}

// TestRemoteDegradeFallsBackLocally pins the last rung of the failure
// ladder for a single point, on a RemoteBatch runner (the point travels
// as a one-item batch whose slot comes back nil) and on a Remote-only
// runner: a failure wrapping ErrUnavailable fails loudly by default,
// but with Degrade set the point simulates locally (counted as
// Degraded, byte-identical to the local oracle). Any other remote error
// still surfaces even with Degrade on.
func TestRemoteDegradeFallsBackLocally(t *testing.T) {
	pt := Point{Kind: machine.DM, P: machine.Params{Window: 8, MD: 30}}
	oracle := testRunner(t)
	want, err := oracle.Run(pt)
	if err != nil {
		t.Fatal(err)
	}
	hooks := []struct {
		name   string
		attach func(r *Runner, err error)
	}{
		{"RemoteBatch", func(r *Runner, err error) {
			r.RemoteBatch = func(pts []Point) ([]*engine.Result, error) {
				return make([]*engine.Result, len(pts)), err
			}
		}},
		{"Remote", func(r *Runner, err error) {
			r.Remote = func(Point) (*engine.Result, error) { return nil, err }
		}},
	}
	for _, h := range hooks {
		r := testRunner(t)
		h.attach(r, fmt.Errorf("daemon fleet: every owner down: %w", ErrUnavailable))
		if _, err := r.Run(pt); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("%s: without Degrade an unavailable fleet must fail loudly, got %v", h.name, err)
		}
		r.Degrade = true
		got, err := r.Run(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: degraded result differs from the local oracle", h.name)
		}
		if st := r.Stats(); st.Degraded != 1 || st.Sims != 0 || st.RemoteHits != 0 {
			t.Fatalf("%s: degraded fill miscounted: %+v", h.name, st)
		}

		r2 := testRunner(t)
		r2.Degrade = true
		h.attach(r2, errors.New("version skew"))
		if _, err := r2.Run(pt); err == nil || !strings.Contains(err.Error(), "version skew") {
			t.Fatalf("%s: non-unavailable remote errors must not degrade: %v", h.name, err)
		}
	}
}

// TestRemoteBatchPartialDegrade pins partial-batch semantics: when the
// batch hook returns what the surviving owners could serve (nil slots
// for the rest) alongside an ErrUnavailable-wrapped error, a Degrade
// runner accepts the served slots as remote hits and simulates only
// the orphaned ones.
func TestRemoteBatchPartialDegrade(t *testing.T) {
	oracle := testRunner(t)
	var pts []Point
	for i := 0; i < 6; i++ {
		pts = append(pts, Point{Kind: machine.DM, P: machine.Params{Window: 8 + i, MD: 30}})
	}
	want, err := oracle.RunAll(pts)
	if err != nil {
		t.Fatal(err)
	}

	r := testRunner(t)
	r.Degrade = true
	served := testRunner(t) // stands in for the surviving replicas
	r.RemoteBatch = func(misses []Point) ([]*engine.Result, error) {
		out := make([]*engine.Result, len(misses))
		for i := 0; i < len(misses); i += 2 {
			res, err := served.Run(misses[i])
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, fmt.Errorf("daemon fleet: 3 points failed on every candidate: %w", ErrUnavailable)
	}
	got, err := r.RunAll(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("partially degraded batch differs from the local oracle")
	}
	if st := r.Stats(); st.RemoteHits != 3 || st.Degraded != 3 || st.Sims != 0 {
		t.Fatalf("partial degradation miscounted: %+v", st)
	}

	// Without Degrade, the same partial answer fails the batch.
	r2 := testRunner(t)
	r2.RemoteBatch = func(misses []Point) ([]*engine.Result, error) {
		return make([]*engine.Result, len(misses)), fmt.Errorf("down: %w", ErrUnavailable)
	}
	if _, err := r2.RunAll(pts); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("without Degrade a partial batch must fail: %v", err)
	}
}
